# README's durable-run walkthrough from the command line: quickstart
# on 200 k TPC-C records runs once uninterrupted, once cut at cycle
# 300000 (a multiple of the 10000-cycle sample period) with
# --checkpoint-stop, and once restored from that cut. The restored
# run's stats JSON must be byte-identical to the uninterrupted run's,
# and its interval file must be the uninterrupted file's records from
# cycle 310000 on. The cut falls inside the warm-up window, which the
# restored run finishes, so the cut run must not warn that the warm-up
# threshold was never reached. Run as `cmake -DCMD=<quickstart> -P
# restore_identity_cli.cmake` from the directory that should receive
# restore_identity/.
set(ENV{S64V_LOG_LEVEL} warn)
set(dir ${CMAKE_CURRENT_BINARY_DIR}/restore_identity)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

function(quickstart name)
    execute_process(
        COMMAND ${CMD} workload=TPC-C instrs=200000
                --stats-json=${name}.json ${ARGN}
        WORKING_DIRECTORY ${dir}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE log)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} run: ${rc}\n${log}")
    endif()
    set(log "${log}" PARENT_SCOPE)
endfunction()

quickstart(full)
quickstart(cut --checkpoint-at=300000 --checkpoint-out=cut.ckpt
           --checkpoint-stop)
if(NOT EXISTS ${dir}/cut.ckpt)
    message(FATAL_ERROR "the cut run wrote no checkpoint")
endif()
string(FIND "${log}" "never reached" warned)
if(NOT warned EQUAL -1)
    message(FATAL_ERROR "the cut run warned about a warm-up its "
                        "restore finishes:\n${log}")
endif()
quickstart(restored --restore=cut.ckpt)

file(SHA256 ${dir}/full.json full_sum)
file(SHA256 ${dir}/restored.json restored_sum)
if(NOT full_sum STREQUAL restored_sum)
    message(FATAL_ERROR "the restored stats JSON differs from the "
                        "uninterrupted run's: ${dir}/restored.json vs "
                        "${dir}/full.json")
endif()

file(READ ${dir}/full.json.intervals.jsonl full)
file(READ ${dir}/restored.json.intervals.jsonl restored)
string(FIND "${full}" "\n{\"cycle\":310000," at)
if(at EQUAL -1)
    message(FATAL_ERROR "the uninterrupted run has no record at cycle "
                        "310000")
endif()
math(EXPR at "${at} + 1")
string(SUBSTRING "${full}" ${at} -1 tail)
if(NOT restored STREQUAL tail)
    string(FIND "${restored}" "\n" end)
    string(SUBSTRING "${restored}" 0 ${end} first)
    message(FATAL_ERROR "the restored interval file is not the "
                        "uninterrupted one from cycle 310000 on; its "
                        "first record:\n${first}")
endif()
