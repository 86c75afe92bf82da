# Drives a journalled sweep and its resume from the command line:
# design_space_sweep writes a fresh journal, a second run resumes from
# it, and both must exit 0 and print byte-identical tables while the
# resume reports every point already complete. The journal's bytes
# must not depend on the worker count, a file that is not a journal
# must be refused by name and left as it was, and trace_tools must
# refuse the journal as a trace file, naming it. Run as
# `cmake -DSWEEP=<design_space_sweep> -DTRACE_TOOLS=<trace_tools>
# -P journal_resume_cli.cmake` from the directory that should receive
# the journals.
set(ENV{S64V_LOG_LEVEL} info)
file(REMOVE cli.journal a.journal b.journal notes.txt)

execute_process(COMMAND ${SWEEP} instrs=20000 --journal=cli.journal
                RESULT_VARIABLE rc OUTPUT_VARIABLE first)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "journalled sweep: ${rc}")
endif()

execute_process(COMMAND ${SWEEP} instrs=20000 --resume=cli.journal
                RESULT_VARIABLE rc OUTPUT_VARIABLE second
                ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed sweep: ${rc}\n${log}")
endif()
if(NOT first STREQUAL second)
    message(FATAL_ERROR "the resumed sweep printed another table:\n"
                        "${first}\n---\n${second}")
endif()
string(FIND "${log}" "resume: 10 of 10 points already complete" at)
if(at EQUAL -1)
    message(FATAL_ERROR "the resume re-ran points:\n${log}")
endif()

# One worker and four write the same journal, byte for byte.
foreach(run "1;a" "4;b")
    list(GET run 0 threads)
    list(GET run 1 name)
    execute_process(COMMAND ${SWEEP} instrs=20000 --threads=${threads}
                            --journal=${name}.journal
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE log)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "sweep on ${threads} workers: ${rc}\n${log}")
    endif()
endforeach()
file(SHA256 a.journal serial)
file(SHA256 b.journal parallel)
if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "the journal depends on the worker count: "
                        "${serial} (1 worker) vs ${parallel} (4)")
endif()

# A file that is not a journal: the sweep names it, runs every point
# and leaves it as it was.
file(WRITE notes.txt "notes for the next run\n")
file(SHA256 notes.txt before)
execute_process(COMMAND ${SWEEP} instrs=20000 --resume=notes.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE third
                ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep over a non-journal: ${rc}\n${log}")
endif()
if(NOT first STREQUAL third)
    message(FATAL_ERROR "the sweep over a non-journal printed another "
                        "table:\n${first}\n---\n${third}")
endif()
string(FIND "${log}" "notes.txt" at)
if(at EQUAL -1)
    message(FATAL_ERROR "the sweep did not name notes.txt:\n${log}")
endif()
file(SHA256 notes.txt after)
if(NOT before STREQUAL after)
    message(FATAL_ERROR "the sweep modified notes.txt")
endif()

execute_process(COMMAND ${TRACE_TOOLS} mode=info in=cli.journal
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE log)
if(rc EQUAL 0)
    message(FATAL_ERROR "trace_tools read a journal as a trace file")
endif()
string(FIND "${log}" "cli.journal" at)
if(at EQUAL -1)
    message(FATAL_ERROR "trace_tools did not name the journal:\n${log}")
endif()
