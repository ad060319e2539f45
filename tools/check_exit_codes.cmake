# Runs ccdn-trace on unusable command lines and inputs and requires exit
# status 2 with the reason on stderr, for simulate, audit and stats alike;
# generate likewise on an --out it cannot write. Exit 1 is left to broken
# invariants and other runtime errors, and nothing may end in an abort or
# run past a timeout. A bad row inside the first fill of CsvSlotSource's
# ring of pieces, and one past its third turn with slots planning on the
# lanes (DESIGN.md §3.9), must fail alike at 1 and 4 threads, and a row at
# the last representable seconds must still make one slot.
#
#   cmake -DCCDN_TRACE=<ccdn-trace> -DDATA_DIR=<tests/data>
#         -DWORK_DIR=<scratch dir> -P check_exit_codes.cmake

set(empty "${WORK_DIR}/exit_code_empty_trace.csv")
set(header_only "${WORK_DIR}/exit_code_header_only_trace.csv")
file(WRITE "${empty}" "")
file(WRITE "${header_only}" "user,timestamp,video,lat,lon\n")

function(expect_exit expected message)
  execute_process(COMMAND ${CCDN_TRACE} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  string(REPLACE ";" " " command "ccdn-trace ${ARGN}")
  if(NOT code STREQUAL "${expected}")
    message(SEND_ERROR "${command}: exit ${code}, expected ${expected}\n${err}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "${command}: stderr lacks '${message}'\n${err}")
  endif()
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

foreach(command IN ITEMS simulate audit stats)
  expect_exit(2 "${command}: cannot open for reading"
              ${command} --in=${WORK_DIR}/exit_code_no_such_trace.csv)
  expect_exit(2 "${command}: trace CSV: missing or malformed header"
              ${command} --in=${empty})
  expect_exit(2 "${command}: trace CSV line 3: not an integer"
              ${command} --in=${DATA_DIR}/stray_cr_trace.csv)
  expect_exit(2 "${command}: trace CSV line 4: unterminated quoted field"
              ${command} --in=${DATA_DIR}/unterminated_quote_trace.csv)
  expect_exit(2 "bare '--' is not a flag" ${command} --in=${header_only} --)
  expect_exit(2 "${command}: video id 99999999 is outside the catalog"
              ${command} --in=${DATA_DIR}/out_of_catalog_trace.csv)
endforeach()
foreach(command IN ITEMS simulate audit)
  expect_exit(2 "${command}: trace CSV line 3: timestamps not sorted"
              ${command} --in=${DATA_DIR}/unsorted_trace.csv)
endforeach()
expect_exit(2 "stats: trace is empty" stats --in=${header_only})
expect_exit(2 "generate: cannot open for writing"
            generate --out=${WORK_DIR}/exit_code_no_such_dir/trace.csv
            --requests=10)
# /dev/full opens but fails every write: both writers must report it
# instead of "wrote".
if(EXISTS /dev/full)
  foreach(mode IN ITEMS --stream --stream=false)
    expect_exit(2 "generate: cannot write: /dev/full"
                generate --out=/dev/full --requests=2000 --hours=2 ${mode})
  endforeach()
endif()

# Slot arithmetic near the int64 limits: a lone row at 9223372036854775800
# is one slot (forming its slot's end used to overflow, and simulate spun),
# and a row whose offset from the first does not fit in int64 is an input
# error naming its line.
set(last_second "${WORK_DIR}/exit_code_last_second_trace.csv")
file(WRITE "${last_second}"
     "user,timestamp,video,lat,lon\n1,9223372036854775800,3,40.0,116.5\n")
set(offset_past "${WORK_DIR}/exit_code_offset_past_trace.csv")
file(WRITE "${offset_past}" "user,timestamp,video,lat,lon\n"
     "1,-9000000000000000000,3,40.0,116.5\n"
     "2,9000000000000000000,3,40.0,116.5\n")

function(expect_success output)
  execute_process(COMMAND ${CCDN_TRACE} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  string(REPLACE ";" " " command "ccdn-trace ${ARGN}")
  if(NOT code STREQUAL "0")
    message(SEND_ERROR "${command}: exit ${code}, expected 0\n${err}")
  endif()
  string(FIND "${out}" "${output}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "${command}: stdout lacks '${output}'\n${out}")
  endif()
endfunction()

expect_success("RBCAer over 1 requests"
               simulate --in=${last_second} --slot_seconds=3600)
expect_success("0 violation(s) across 1 slot(s)"
               audit --in=${last_second} --slot_seconds=3600)
foreach(command IN ITEMS simulate audit)
  expect_exit(2 "${command}: trace CSV line 3: timestamp is more than 2^63 - 1 s after the first row's"
              ${command} --in=${offset_past} --slot_seconds=3600)
endforeach()

# 30,000 rows of 20 bytes (586 KiB, more than 4 x 128 KiB, inside the
# ring's first fill of 8 pieces) and then, on line 30,002, a malformed row
# or one out of order.
string(REPEAT "1,1000,3,40.0,116.5\n" 30000 rows)
set(late_bad "${WORK_DIR}/exit_code_late_bad_row_trace.csv")
file(WRITE "${late_bad}" "user,timestamp,video,lat,lon\n${rows}"
     "1,1000,x,40.0,116.5\n1,1000,3,40.0,116.5\n")
set(late_unsorted "${WORK_DIR}/exit_code_late_unsorted_trace.csv")
file(WRITE "${late_unsorted}" "user,timestamp,video,lat,lon\n${rows}"
     "1,999,3,40.0,116.5\n1,1000,3,40.0,116.5\n")

# Exit 2 with `message` on stderr at --threads=1 and --threads=4, and the
# same stderr at both (audit takes no --threads).
function(expect_same_failure message)
  foreach(threads IN ITEMS 1 4)
    expect_exit(2 "${message}" ${ARGN} --threads=${threads})
    set(err_${threads} "${last_stderr}")
  endforeach()
  if(NOT err_1 STREQUAL err_4)
    string(REPLACE ";" " " command "ccdn-trace ${ARGN}")
    message(SEND_ERROR "${command}: stderr differs between 1 and 4 threads"
            "\n--threads=1: ${err_1}\n--threads=4: ${err_4}")
  endif()
endfunction()

# Nine hourly slots of 20,000 rows (3.55 MiB, past three turns of the
# ring), so at 4 threads slot tasks hold the lanes while the ring cuts its
# pieces again, and then, on line 180,002, a malformed row or one out of
# order.
set(hourly_rows "")
foreach(hour RANGE 8)
  math(EXPR timestamp "1000 + ${hour} * 3600")
  string(REPEAT "1,${timestamp},3,40.0,116.5\n" 20000 slot_rows)
  string(APPEND hourly_rows "${slot_rows}")
endforeach()
set(turns_bad "${WORK_DIR}/exit_code_past_turns_bad_row_trace.csv")
file(WRITE "${turns_bad}" "user,timestamp,video,lat,lon\n${hourly_rows}"
     "1,29800,x,40.0,116.5\n1,29800,3,40.0,116.5\n")
set(turns_unsorted "${WORK_DIR}/exit_code_past_turns_unsorted_trace.csv")
file(WRITE "${turns_unsorted}" "user,timestamp,video,lat,lon\n${hourly_rows}"
     "1,29799,3,40.0,116.5\n1,29800,3,40.0,116.5\n")

expect_same_failure("simulate: trace CSV line 30002: not an integer: 'x'"
                    simulate --in=${late_bad} --slot_seconds=3600)
expect_same_failure(
    "simulate: trace CSV line 30002: timestamps not sorted ascending"
    simulate --in=${late_unsorted} --slot_seconds=3600)
expect_exit(2 "audit: trace CSV line 30002: not an integer: 'x'"
            audit --in=${late_bad} --slot_seconds=3600)
expect_exit(2 "audit: trace CSV line 30002: timestamps not sorted ascending"
            audit --in=${late_unsorted} --slot_seconds=3600)
expect_same_failure("simulate: trace CSV line 180002: not an integer: 'x'"
                    simulate --in=${turns_bad} --slot_seconds=3600)
expect_same_failure(
    "simulate: trace CSV line 180002: timestamps not sorted ascending"
    simulate --in=${turns_unsorted} --slot_seconds=3600)
expect_exit(2 "audit: trace CSV line 180002: not an integer: 'x'"
            audit --in=${turns_bad} --slot_seconds=3600)
expect_exit(2 "audit: trace CSV line 180002: timestamps not sorted ascending"
            audit --in=${turns_unsorted} --slot_seconds=3600)
