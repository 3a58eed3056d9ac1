# expect_usage.cmake — requires a bench to reject bad count arguments:
# for each of "abc" (non-numeric) and "0" (zero) it must print a usage
# line on stderr and exit with status 2 before doing any work.
#
#   cmake -DBENCH=<path-to-bench-binary> [-DLEADING=<arg>] -P expect_usage.cmake
#
# LEADING, if set, goes before the bad count (e.g. "--iters" to check a
# flag's value instead of the positional count).
foreach(arg abc 0)
  execute_process(COMMAND "${BENCH}" ${LEADING} ${arg}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR
            "${BENCH} ${LEADING} ${arg}: expected usage and exit 2, got exit "
            "'${status}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
