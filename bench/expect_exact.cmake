# expect_exact.cmake — requires a bench's exact values to equal its
# committed baseline's: runs the bench at the baseline's "iters" (no
# --iters flag when that is 0), writes the report to OUT, and fails unless
# the report is schema 2 and its "exact" object has the baseline's keys
# and values.
#
#   cmake -DBENCH=<path-to-binary> -DBASELINE=<baseline.json>
#         -DOUT=<report.json> -P expect_exact.cmake
#
# To change a baseline on purpose, rerun the bench at that --iters with
# --out bench/baselines/BENCH_<name>.json.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${BASELINE}" baseline)
string(JSON iters GET "${baseline}" iters)
set(args --out "${OUT}")
if(NOT iters EQUAL 0)
  list(PREPEND args --iters ${iters})
endif()
file(REMOVE "${OUT}")
execute_process(COMMAND "${BENCH}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "${BENCH} ${args}: exit '${status}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()

file(READ "${OUT}" report)
string(JSON schema GET "${report}" schema)
if(NOT schema STREQUAL "2")
  message(FATAL_ERROR "${OUT}: schema '${schema}', expected 2")
endif()
# GET renders an object with its keys sorted, one per line, and every
# number at full precision, so equal renderings mean equal key sets and
# equal values.
string(JSON want GET "${baseline}" exact)
string(JSON got GET "${report}" exact)
if(NOT want STREQUAL got)
  message(FATAL_ERROR "${OUT}: exact values differ from ${BASELINE}\n"
                      "baseline:\n${want}\nreport:\n${got}")
endif()
