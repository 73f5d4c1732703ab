// The golden SAX corpus: documents paired with the exact event trace the
// parser must produce for them. tests/data/sax_corpus.txt holds the corpus;
// sax_corpus_main.cc generates it, and sax_golden_test.cc replays it.
//
// File format: '#' lines are comments; every entry is two lines,
//   doc <name> <options> <escaped document>
//   trace <escaped trace tokens...>
// where escaping replaces '%' and every byte outside '!'..'~' with %XX, so
// documents and event contents never contain a space or a newline.
//
// A trace is one token per event, each followed by "@<bytes consumed>":
// "S:<name>" plus one "A:<name>=<value>" per attribute, "T:<text>",
// "E:<name>". It ends with "OK@<bytes consumed>" at clean end of input or
// "ERR:<status code>" (the code only; messages are free to change).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/stream.h"
#include "util/status.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace testing {

inline std::string EscapeBytes(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    auto byte = static_cast<unsigned char>(c);
    if (byte > ' ' && byte <= '~' && byte != '%') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xF]);
    }
  }
  return out;
}

inline std::string UnescapeBytes(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      out.push_back(static_cast<char>(
          std::stoi(std::string(text.substr(i + 1, 2)), nullptr, 16)));
      i += 2;
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

inline std::string OptionsName(const SaxOptions& options) {
  if (options.skip_whitespace_text && options.check_tag_names) {
    return "default";
  }
  std::string name = options.skip_whitespace_text ? "" : "keep-ws";
  if (!options.check_tag_names) name += name.empty() ? "no-names" : ",no-names";
  return name;
}

inline SaxOptions OptionsFromName(std::string_view name) {
  SaxOptions options;
  options.skip_whitespace_text = name.find("keep-ws") == std::string::npos;
  options.check_tag_names = name.find("no-names") == std::string::npos;
  return options;
}

/// Drain `parser` into a trace (see the file comment).
inline std::string TraceParse(SaxParser* parser) {
  std::string out;
  XmlEvent event;
  while (true) {
    StatusOr<bool> more = parser->Next(&event);
    if (!more.ok()) {
      std::string code = more.status().ToString();
      return out + "ERR:" + code.substr(0, code.find(':'));
    }
    if (!*more) break;
    switch (event.type) {
      case XmlEventType::kStartElement:
        out += "S:" + EscapeBytes(event.name);
        for (const XmlAttribute& attr : event.attributes) {
          out += " A:" + EscapeBytes(attr.name) + "=" + EscapeBytes(attr.value);
        }
        break;
      case XmlEventType::kEndElement:
        out += "E:" + EscapeBytes(event.name);
        break;
      case XmlEventType::kText:
        out += "T:" + EscapeBytes(event.text);
        break;
    }
    out += " @" + std::to_string(parser->bytes_consumed()) + " ";
  }
  return out + "OK@" + std::to_string(parser->bytes_consumed());
}

inline std::string TraceDocument(std::string_view xml, SaxOptions options) {
  StringByteSource source(xml);
  SaxParser parser(&source, options);
  return TraceParse(&parser);
}

struct CorpusEntry {
  std::string name;
  SaxOptions options;
  std::string doc;
  std::string trace;
};

inline void WriteCorpus(std::ostream& out,
                        const std::vector<CorpusEntry>& entries) {
  for (const CorpusEntry& entry : entries) {
    out << "doc " << entry.name << " " << OptionsName(entry.options) << " "
        << EscapeBytes(entry.doc) << "\ntrace " << entry.trace << "\n";
  }
}

/// Parse a corpus file; an empty result means it was missing or malformed.
inline std::vector<CorpusEntry> ReadCorpus(const std::string& path) {
  std::vector<CorpusEntry> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag, name, options, doc;
    fields >> tag >> name >> options >> doc;
    std::string trace;
    if (tag != "doc" || !std::getline(in, trace) ||
        trace.compare(0, 6, "trace ") != 0) {
      return {};
    }
    entries.push_back({name, OptionsFromName(options), UnescapeBytes(doc),
                       trace.substr(6)});
  }
  return entries;
}

}  // namespace testing
}  // namespace nexsort
