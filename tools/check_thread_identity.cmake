# The report must not depend on the thread count: the lanes plan slots out
# of order and the ordered reduction puts them back. A generated 200,000-
# request, 24-hour trace is simulated with the same world flags at 1 and 4
# threads, unsharded and with 4 geo shards, and each pair of reports must
# match byte for byte. At --capacity=0.002 (30 requests a hotspot-hour
# against ~27 offered) hotspots overload, so the θ sweep, Procedure 1's
# redirects and the shard exchange all run; at the default capacity nothing
# moves. The file is read in pieces on the lanes at 4 threads; piped in,
# the same trace is read by TraceReader alone, and the report must match
# the file's too.
#
#   cmake -DCCDN_TRACE=<ccdn-trace> -DWORK_DIR=<scratch dir>
#         -P check_thread_identity.cmake

set(trace "${WORK_DIR}/thread_identity_trace.csv")
execute_process(COMMAND ${CCDN_TRACE} generate --out=${trace}
                        --requests=200000 --hours=24 --seed=7
                RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate: exit ${code}\n${err}")
endif()

set(flags --scheme=rbcaer --slot_seconds=3600 --seed=7 --capacity=0.002)
foreach(shards IN ITEMS 0 4)
  foreach(threads IN ITEMS 1 4)
    execute_process(COMMAND ${CCDN_TRACE} simulate --in=${trace} ${flags}
                            --shards=${shards} --threads=${threads}
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE report_t${threads}
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "simulate --shards=${shards} --threads=${threads}: "
                          "exit ${code}\n${err}")
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${trace}
                  COMMAND ${CCDN_TRACE} simulate --in=/dev/stdin ${flags}
                          --shards=${shards} --threads=4
                  RESULTS_VARIABLE codes
                  OUTPUT_VARIABLE report_pipe
                  ERROR_VARIABLE err)
  if(NOT codes STREQUAL "0;0")
    message(FATAL_ERROR "piped simulate --shards=${shards}: exit ${codes}\n"
                        "${err}")
  endif()
  message(STATUS "--shards=${shards}, 1 thread:\n${report_t1}")
  if(NOT report_t1 STREQUAL report_t4)
    message(SEND_ERROR "--shards=${shards}: the 4-thread report differs\n"
                       "${report_t4}")
  endif()
  if(NOT report_t4 STREQUAL report_pipe)
    message(SEND_ERROR "--shards=${shards}: the piped report differs\n"
                       "${report_pipe}")
  endif()
endforeach()
