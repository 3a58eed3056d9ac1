# serve_session.cmake — drives one `discipulus_cli serve` REPL session from
# a script and checks what it leaves behind: a malformed number prints
# usage and queues nothing, a software job run to a generation budget is
# saved to a snapshot file and resumed, the file describes cleanly with
# `status`, and the metrics file holds one JSON line per command plus the
# final one written after the service shut down.
#
#   cmake -DCLI=<path-to-discipulus_cli> -DWORK_DIR=<dir> -P serve_session.cmake
set(snapshot "${WORK_DIR}/serve_session.leos")
set(metrics "${WORK_DIR}/serve_session.jsonl")
set(input "${WORK_DIR}/serve_session.in")
set(commands
    "submit abc"
    "submit 7x 5"
    "submit 7 50"
    "save 1 ${snapshot}"
    "resume ${snapshot}"
    "status"
    "stats"
    "quit")
file(REMOVE "${snapshot}" "${metrics}")
list(JOIN commands "\n" text)
file(WRITE "${input}" "${text}\n")

execute_process(COMMAND "${CLI}" serve 2 "${metrics}"
                INPUT_FILE "${input}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0" OR NOT out MATCHES "resumed as job 2")
  message(FATAL_ERROR "serve session: expected exit 0 and 'resumed as job 2', "
                      "got exit '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "usage: submit " usages "${out}")
list(LENGTH usages n_usages)
if(NOT n_usages EQUAL 2)
  message(FATAL_ERROR "serve session: expected 2 'usage: submit' lines for "
                      "the malformed submits, got ${n_usages}\n"
                      "stdout:\n${out}")
endif()

execute_process(COMMAND "${CLI}" status "${snapshot}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "status ${snapshot}: exit '${status}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()

file(STRINGS "${metrics}" lines)
file(STRINGS "${metrics}" records REGEX "^{\"type\":\"metrics\"")
list(LENGTH commands n_commands)
math(EXPR expected "${n_commands} + 1")
list(LENGTH lines n_lines)
list(LENGTH records n_records)
if(NOT n_lines EQUAL expected OR NOT n_records EQUAL expected)
  message(FATAL_ERROR "${metrics}: expected ${expected} metrics lines (one "
                      "per command plus the final one), got ${n_records} of "
                      "${n_lines} lines")
endif()
