# End-to-end run of cadrl_cli on the tiny preset: generate -> train ->
# compile an int8 shard directory -> serve from it. Fails unless every
# step succeeds and the serve summary reports the int8 arena it served.
#
#   cmake -DCLI=<path to cadrl_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_int8_serve_test.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<cadrl_cli> -DWORK_DIR=<dir> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_step name)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  message("$ cadrl_cli ${ARGN}\n${out}${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step '${name}' exited with ${rc}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

run_step(generate generate tiny ds.txt)
run_step(train train ds.txt model.txt)
run_step(compile snapshot compile ds.txt model.txt shards --precision int8)
run_step(serve serve ds.txt model.txt --shard_dir shards --requests 20)

if(NOT last_output MATCHES "serving arena: int8,")
  message(FATAL_ERROR "serve did not report the int8 arena it served")
endif()
