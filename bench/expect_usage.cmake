# expect_usage.cmake — requires a bench to reject bad count arguments:
# for each of "abc" (non-numeric) and "0" (zero) it must print a usage
# line on stderr and exit with status 2 before doing any work.
#
#   cmake -DBENCH=<path-to-bench-binary> -P expect_usage.cmake
foreach(arg abc 0)
  execute_process(COMMAND "${BENCH}" ${arg}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR
            "${BENCH} ${arg}: expected usage and exit 2, got exit "
            "'${status}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
