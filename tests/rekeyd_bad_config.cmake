# Starts rekeyd with configs the key-server daemon refuses. Each must exit
# 2, the usage-error code, with a "rekeyd: <reason>" line and before it
# reports that it is listening; an abort or a hang fails the test.
#
#   cmake -DREKEYD=path/to/rekeyd -P rekeyd_bad_config.cmake
if(NOT REKEYD)
  message(FATAL_ERROR "pass -DREKEYD=<path to rekeyd>")
endif()

set(configs
    "--shards 3"
    "--shards 512"
    "--degree 1"
    "--max-rounds 1000"
    "--churn-pool 2 --leaves 8")
set(failed 0)
foreach(config IN LISTS configs)
  separate_arguments(args UNIX_COMMAND "${config}")
  execute_process(
    COMMAND ${REKEYD} --bind 127.0.0.1:0 --clients 4 ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "rekeyd ${config}: exit '${rc}', want 2\n${err}")
    set(failed 1)
  elseif(NOT err MATCHES "^rekeyd: " OR err MATCHES "listening on")
    message(SEND_ERROR "rekeyd ${config}: unexpected stderr\n${err}")
    set(failed 1)
  else()
    message(STATUS "rekeyd ${config}: exit 2")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "rekeyd accepted or crashed on a bad config")
endif()
