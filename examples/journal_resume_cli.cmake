# Drives a journalled sweep and its resume from the command line:
# design_space_sweep writes a fresh journal, a second run resumes from
# it, and both must exit 0 and print byte-identical tables while the
# resume reports every point already complete. trace_tools must then
# refuse the journal as a trace file, naming it. Run as
# `cmake -DSWEEP=<design_space_sweep> -DTRACE_TOOLS=<trace_tools>
# -P journal_resume_cli.cmake` from the directory that should receive
# the journal.
set(ENV{S64V_LOG_LEVEL} info)
file(REMOVE cli.journal)

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

execute_process(COMMAND ${TRACE_TOOLS} mode=info in=cli.journal
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE log)
if(rc EQUAL 0)
    message(FATAL_ERROR "trace_tools read a journal as a trace file")
endif()
string(FIND "${log}" "cli.journal" at)
if(at EQUAL -1)
    message(FATAL_ERROR "trace_tools did not name the journal:\n${log}")
endif()
