// The repo's one JSON reader (obs/json.hpp): grammar conformance, the
// visitor's paths and types, the writer helpers round-tripping through it,
// and every committed JSON document parsing under it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace easched {
namespace {

bool parses(const std::string& text, std::string* error = nullptr) {
  return obs::read_json(text, [](const obs::JsonNode&) { return true; },
                        error);
}

/// The one string value of a document that is a bare string.
std::string decoded(const std::string& text) {
  std::string out;
  std::string error;
  const bool ok = obs::read_json(
      text,
      [&out](const obs::JsonNode& n) {
        out = n.text;
        return true;
      },
      &error);
  EXPECT_TRUE(ok) << text << ": " << error;
  return out;
}

TEST(JsonReader, ConformanceTable) {
  struct Case {
    std::string text;
    bool valid;
  };
  const Case cases[] = {
      // Numbers: strict grammar only.
      {"0", true},
      {"-0", true},
      {"12.5e-3", true},
      {"1E+2", true},
      {"nan", false},
      {"NaN", false},
      {"inf", false},
      {"-inf", false},
      {"1.", false},
      {".5", false},
      {"1e", false},
      {"1e+", false},
      {"01", false},
      {"-", false},
      {"+1", false},
      {"1e999", false},
      // Strings and escapes.
      {R"("plain")", true},
      {R"("\"\\\/\b\f\n\r\t")", true},
      {R"("\u00e9\u0041")", true},
      {R"("\ud83d\ude00")", true},
      {R"("\u12")", false},
      {R"("\uZZZZ")", false},
      {R"("\x41")", false},
      {"\"unterminated", false},
      {"\"raw\nnewline\"", false},
      {"\"raw\ttab\"", false},
      // Literals.
      {"true", true},
      {"false", true},
      {"null", true},
      {"tru", false},
      {"nul", false},
      {"True", false},
      // Containers, including empty nested ones.
      {"{}", true},
      {"[]", true},
      {R"({"a":{},"b":[],"c":[{}, []]})", true},
      {" \t\r\n{\"x\" : [ 1 , 2 ]}\n", true},
      {R"({"a" 1})", false},
      {R"({"a":1,})", false},
      {"[1,]", false},
      {"{1:2}", false},
      {"[", false},
      {R"({"a":)", false},
      {std::string(300, '['), false},
      // Whole document only.
      {"", false},
      {"   ", false},
      {"{} x", false},
      {"[1] 2", false},
      {"\v1", false},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(parses(c.text, &error), c.valid) << "input: " << c.text;
    if (!c.valid) {
      EXPECT_NE(error.find("offset"), std::string::npos) << c.text;
    }
  }
}

TEST(JsonReader, DecodesEscapesToUtf8) {
  EXPECT_EQ(decoded(R"("\u00e9\u0041")"), "\xc3\xa9" "A");
  EXPECT_EQ(decoded(R"("\u20AC")"), "\xe2\x82\xac");
  EXPECT_EQ(decoded(R"("\ud83d\ude00")"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(decoded(R"("a\nb\u0000c")"), std::string("a\nb\0c", 5));
}

TEST(JsonReader, ReportsPathsTypesAndContainerBounds) {
  struct Seen {
    obs::JsonType type;
    bool close;
    std::size_t depth;
    std::string path;
    std::string key;
  };
  std::vector<Seen> seen;
  ASSERT_TRUE(obs::read_json(
      R"({"a":{"b.c":[1,"x",true,null]},"e":{}})",
      [&seen](const obs::JsonNode& n) {
        seen.push_back({n.type, n.close, n.depth, std::string(n.path),
                        std::string(n.key)});
        return true;
      }));
  using T = obs::JsonType;
  const std::vector<Seen> expected = {
      {T::kObject, false, 0, "", ""},
      {T::kObject, false, 1, "a", "a"},
      {T::kArray, false, 2, "a.b.c", "b.c"},
      {T::kNumber, false, 3, "a.b.c.0", "0"},
      {T::kString, false, 3, "a.b.c.1", "1"},
      {T::kBool, false, 3, "a.b.c.2", "2"},
      {T::kNull, false, 3, "a.b.c.3", "3"},
      {T::kArray, true, 2, "a.b.c", "b.c"},
      {T::kObject, true, 1, "a", "a"},
      {T::kObject, false, 1, "e", "e"},
      {T::kObject, true, 1, "e", "e"},
      {T::kObject, true, 0, "", ""},
  };
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].type, expected[i].type) << i;
    EXPECT_EQ(seen[i].close, expected[i].close) << i;
    EXPECT_EQ(seen[i].depth, expected[i].depth) << i;
    EXPECT_EQ(seen[i].path, expected[i].path) << i;
    EXPECT_EQ(seen[i].key, expected[i].key) << i;
  }
}

TEST(JsonReader, VisitorCanStopTheRead) {
  std::string error = "untouched";
  int calls = 0;
  EXPECT_FALSE(obs::read_json(
      "[1,2,3]",
      [&calls](const obs::JsonNode& n) {
        ++calls;
        return n.type != obs::JsonType::kNumber;
      },
      &error));
  EXPECT_EQ(calls, 2);  // the array, then its first element
  EXPECT_EQ(error, "untouched");
}

TEST(JsonWriter, StringsRoundTripEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::ostringstream os;
  obs::write_json_string(os, all);
  EXPECT_EQ(decoded(os.str()), all);
  // Short escapes where JSON has them, \u00XX for the other controls.
  std::ostringstream small;
  obs::write_json_string(small, "a\"b\\c\n\t\x01");
  EXPECT_EQ(small.str(), R"("a\"b\\c\n\t\u0001")");
}

TEST(JsonWriter, NumbersUseTheNineDigitForm) {
  std::ostringstream os;
  obs::write_json_number(os, 1948.014873);
  os << ' ';
  obs::write_json_number(os, 0.5);
  os << ' ';
  obs::write_json_number(os, 1e21);
  EXPECT_EQ(os.str(), "1948.01487 0.5 1e+21");
}

TEST(JsonReader, EveryCommittedJsonDocumentParses) {
  namespace fs = std::filesystem;
  const fs::path root = EASCHED_SOURCE_DIR;
  std::size_t checked = 0;
  for (const fs::path& dir : {root, root / "tests" / "data"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".json") {
        continue;
      }
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      std::string error;
      EXPECT_TRUE(parses(text.str(), &error))
          << entry.path() << ": " << error;
      ++checked;
    }
  }
  // BENCHMARK.json, BENCH_fleet.json, BENCH_sim.json, golden_envelopes.json
  // and run_summary_baseline.json at least.
  EXPECT_GE(checked, 5u);
}

}  // namespace
}  // namespace easched
