# Runs `modelcheck --max-states VALUE` for malformed values and fails unless
# every run exits 2 (usage error).
#   cmake -DMODELCHECK=path/to/modelcheck -P check_max_states_parsing.cmake
foreach(value abc 10x -1 "" " 5" +5 99999999999999999999999)
  execute_process(COMMAND ${MODELCHECK} --max-states "${value}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "modelcheck --max-states '${value}' exited '${rc}', expected 2")
  endif()
endforeach()
