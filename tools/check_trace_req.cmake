# Runs `privagicc --trace-out` on PIR's f0 and fails unless the trace it
# writes holds an event of a sampled request (a nonzero "req" argument).
#   cmake -DPRIVAGICC=... -DPIR=... -DOUT=... -P check_trace_req.cmake
execute_process(COMMAND ${PRIVAGICC} --mode=relaxed --trace-out=${OUT} --run f0 5 ${PIR}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "privagicc exited with ${rc}")
endif()
file(READ ${OUT} doc)
if(NOT doc MATCHES "\"req\":[1-9]")
  message(FATAL_ERROR "${OUT} holds no event of a sampled request")
endif()
