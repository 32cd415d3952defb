# Runs each bench with an argument it does not know and fails unless every
# run exits 2 (usage error) instead of running its default configuration.
#   cmake -DFIG1=path/to/fig1_trace -DFIG_SPLIT=path/to/fig_split
#         -P check_unknown_flags.cmake
foreach(run "${FIG1};--threads=4" "${FIG_SPLIT};--json;--threads=4")
  execute_process(COMMAND ${run} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${run}' exited '${rc}', expected 2")
  endif()
endforeach()
