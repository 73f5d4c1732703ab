# A failed xmlsort must leave a previous output file byte-for-byte as it
# was, and no <output>.work or staging file behind. Two failures: a
# truncated input (exit 1) and a memory budget too small to sort in
# (`--memory-mb 1 --block-kb 256`, exit 2). A successful run afterwards
# replaces the output and leaves nothing else behind either.
#
#   cmake -DXMLSORT=<xmlsort binary> -DWORK=<scratch dir>
#         -P xmlsort_failure_test.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(doc "<list>")
foreach(i RANGE 300)
  math(EXPR id "(${i} * 37) % 301")
  string(APPEND doc "<item id=\"${id}\"><v>value ${id}</v></item>")
endforeach()
string(APPEND doc "</list>")
file(WRITE ${WORK}/good.xml "${doc}")
string(LENGTH "${doc}" length)
math(EXPR half "${length} / 2")
string(SUBSTRING "${doc}" 0 ${half} truncated)
file(WRITE ${WORK}/truncated.xml "${truncated}")
set(previous "<previous>kept</previous>\n")

# Runs xmlsort on `input` with the extra arguments, expecting `expected`.
function(run_xmlsort input expected)
  execute_process(COMMAND ${XMLSORT} --numeric ${ARGN} ${WORK}/${input}
                          ${WORK}/out.xml
                  RESULT_VARIABLE status ERROR_VARIABLE stderr)
  if(NOT status EQUAL expected)
    message(FATAL_ERROR "xmlsort ${ARGN} ${input} exited ${status}, "
                        "expected ${expected}:\n${stderr}")
  endif()
  file(GLOB left RELATIVE ${WORK} ${WORK}/*)
  list(SORT left)
  if(NOT left STREQUAL "good.xml;out.xml;truncated.xml")
    message(FATAL_ERROR "xmlsort ${ARGN} ${input} left files behind: ${left}")
  endif()
endfunction()

foreach(case "truncated.xml;1" "good.xml;2;--memory-mb;1;--block-kb;256")
  file(WRITE ${WORK}/out.xml "${previous}")
  run_xmlsort(${case})
  file(READ ${WORK}/out.xml after)
  if(NOT after STREQUAL previous)
    message(FATAL_ERROR "failed xmlsort (${case}) changed the previous "
                        "output to:\n${after}")
  endif()
endforeach()

run_xmlsort(good.xml 0)
file(READ ${WORK}/out.xml after)
if(after STREQUAL previous OR NOT after MATCHES "^<list><item id=\"0\">")
  message(FATAL_ERROR "xmlsort did not replace the output:\n${after}")
endif()
