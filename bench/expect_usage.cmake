# expect_usage.cmake — requires a program to reject bad arguments: for
# each of ARGS (default "abc" (non-numeric) and "0" (zero)) it must print
# a usage line on stderr and exit with status 2 before doing any work.
#
#   cmake -DBENCH=<path-to-binary> [-DLEADING=<args>] [-DARGS=<args>]
#         -P expect_usage.cmake
#
# LEADING, if set, goes before each bad argument (e.g. "--iters" to check
# a flag's value instead of the positional count, or "submit;1" for a
# subcommand). Both are CMake lists, one element per argument.
if(NOT DEFINED ARGS)
  set(ARGS abc 0)
endif()
foreach(arg IN LISTS ARGS)
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
