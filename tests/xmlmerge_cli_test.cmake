# xmlmerge end to end: merge the checked-in fixtures with and without
# --updates and byte-compare each output with its expected file.
#
#   cmake -DXMLMERGE=<xmlmerge binary> -DFIXTURES=<examples/fixtures>
#         -DWORK=<scratch dir> -P xmlmerge_cli_test.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
# xmlmerge writes its sort temporaries next to its inputs: run on copies.
file(COPY ${FIXTURES}/merge_base.xml ${FIXTURES}/merge_batch.xml
     DESTINATION ${WORK})
foreach(mode plain updates)
  set(flags)
  if(mode STREQUAL "updates")
    set(flags --updates)
  endif()
  execute_process(
    COMMAND ${XMLMERGE} ${flags} ${WORK}/merge_base.xml
            ${WORK}/merge_batch.xml ${WORK}/${mode}.xml
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "xmlmerge (${mode}) exited with ${status}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK}/${mode}.xml
            ${FIXTURES}/merge_${mode}.expected.xml
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "xmlmerge (${mode}) output differs from merge_${mode}.expected.xml")
  endif()
endforeach()
