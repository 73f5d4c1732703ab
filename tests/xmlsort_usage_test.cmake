# xmlsort's usage text must name every flag its parser accepts: run
# `xmlsort --help` (an unknown flag, so it prints usage and exits 2) and
# look for each `arg == "--flag"` of examples/xmlsort.cpp in the output.
#
#   cmake -DXMLSORT=<xmlsort binary> -DSOURCE=<examples/xmlsort.cpp>
#         -P xmlsort_usage_test.cmake
execute_process(COMMAND ${XMLSORT} --help
                RESULT_VARIABLE status ERROR_VARIABLE usage)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "xmlsort --help exited with ${status}, expected 2")
endif()
file(READ ${SOURCE} source)
string(REGEX MATCHALL "arg == \"--[a-z-]+\"" parsed "${source}")
list(LENGTH parsed count)
if(count LESS 30)
  message(FATAL_ERROR "found only ${count} flags in ${SOURCE}")
endif()
# Flags as space-separated words, so --check does not match --check-only.
string(REGEX REPLACE "[][|\n]" " " words " ${usage} ")
foreach(match IN LISTS parsed)
  string(REGEX REPLACE "arg == \"(--[a-z-]+)\"" "\\1" flag "${match}")
  string(FIND "${words}" " ${flag} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "xmlsort usage does not list ${flag}:\n${usage}")
  endif()
endforeach()
