# Audits overloaded replays: a generated 20,000-request, 24-hour trace at
# hourly slots and a service capacity of 0.05% of the catalog, so hotspots
# overload in every slot and the θ sweep, the shard exchange and
# Procedure 1's redirects all run. rbcaer and virtual, unsharded and at 4
# shards, must exit 0 with every slot clean, and must plan differently from
# nearest in at least half the slots; plans equal to nearest's would leave
# the planner itself unaudited.
#
#   cmake -DCCDN_TRACE=<ccdn-trace> -DWORK_DIR=<scratch dir>
#         -P check_audited_replays.cmake

set(trace "${WORK_DIR}/audited_replay_trace.csv")
execute_process(COMMAND ${CCDN_TRACE} generate --out=${trace}
                        --requests=20000 --hours=24 --seed=42
                RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate: exit ${code}\n${err}")
endif()

# Sets <out_var> to the run's per-slot digests, in slot order.
function(audit out_var)
  execute_process(COMMAND ${CCDN_TRACE} audit --in=${trace} --slot_seconds=3600
                          --capacity=0.0005 ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " args "${ARGN}")
  if(NOT code EQUAL 0)
    message(SEND_ERROR "audit ${args}: exit ${code}\n${out}${err}")
  endif()
  string(FIND "${out}" "audit: 0 violation(s) across 24 slot(s)" at)
  if(at EQUAL -1)
    message(SEND_ERROR "audit ${args}: not 24 clean slots\n${out}")
  endif()
  string(REGEX MATCHALL "digest [0-9a-f]+" digests "${out}")
  set(${out_var} "${digests}" PARENT_SCOPE)
endfunction()

audit(nearest --scheme=nearest)
foreach(scheme IN ITEMS rbcaer virtual)
  foreach(shards IN ITEMS 0 4)
    audit(planned --scheme=${scheme} --shards=${shards})
    list(LENGTH planned slots)
    set(differing 0)
    if(slots EQUAL 24)
      foreach(slot RANGE 23)
        list(GET planned ${slot} mine)
        list(GET nearest ${slot} theirs)
        if(NOT mine STREQUAL theirs)
          math(EXPR differing "${differing} + 1")
        endif()
      endforeach()
    endif()
    message(STATUS "${scheme} at ${shards} shards: plans differ from "
                   "nearest's in ${differing}/24 slots")
    if(differing LESS 12)
      message(SEND_ERROR "${scheme} at ${shards} shards plans like nearest "
                         "in more than half the slots")
    endif()
  endforeach()
endforeach()
