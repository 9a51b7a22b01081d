#include <gtest/gtest.h>

#include "liberty/model.h"
#include "liberty/parser.h"
#include "liberty/synthetic.h"
#include "liberty/writer.h"

namespace statsizer::liberty {
namespace {

// ---------------------------------------------------------------------------
// cell-name parsing
// ---------------------------------------------------------------------------

TEST(CellName, DriveSuffixes) {
  EXPECT_EQ(parse_cell_name("NAND2_X4").base, "NAND2");
  EXPECT_DOUBLE_EQ(parse_cell_name("NAND2_X4").drive, 4.0);
  EXPECT_DOUBLE_EQ(parse_cell_name("INV_X16").drive, 16.0);
  EXPECT_DOUBLE_EQ(parse_cell_name("BUF_X0P5").drive, 0.5);
  EXPECT_EQ(parse_cell_name("PLAIN").base, "PLAIN");
  EXPECT_DOUBLE_EQ(parse_cell_name("PLAIN").drive, 1.0);
  // Non-numeric suffix is part of the base name.
  EXPECT_EQ(parse_cell_name("FOO_XBAR").base, "FOO_XBAR");
}

// A suffix of bare 'P's, more than one 'P', digits too long for a finite
// double, or a zero drive is no drive suffix: the whole name is the base, drive 1, as for
// FOO_XBAR. None of them may throw.
TEST(CellName, MalformedDriveSuffixesAreNotDrives) {
  for (const std::string name :
       {std::string("INV_XP"), std::string("INV_X1P2P3"), "INV_X" + std::string(400, '9'),
        std::string("INV_X0"), std::string("INV_X0P0")}) {
    SCOPED_TRACE(name.substr(0, 16));
    ParsedCellName parsed;
    ASSERT_NO_THROW(parsed = parse_cell_name(name));
    EXPECT_EQ(parsed.base, name);
    EXPECT_EQ(parsed.drive, 1.0);
  }
}

TEST(CellName, LibraryWithMalformedDriveSuffixParses) {
  std::string text = write_library(build_synthetic_90nm());
  const std::string from = "cell (INV_X1)";
  const auto at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "cell (INV_XP)");
  StatusOr<Library> lib = Status::error("not parsed");
  EXPECT_NO_THROW(lib = parse_library(text));
  ASSERT_TRUE(lib.ok()) << lib.status().message();
  EXPECT_TRUE(lib->find_group("INV").has_value());
  EXPECT_FALSE(lib->find_group("INV_XP").has_value());
}

TEST(BaseFunc, KnownFamilies) {
  ASSERT_TRUE(base_func_of("NAND3").has_value());
  EXPECT_EQ(base_func_of("NAND3")->arity, 3u);
  EXPECT_EQ(base_func_of("NAND3")->func, netlist::GateFunc::kNand);
  EXPECT_EQ(base_func_of("MUX2")->func, netlist::GateFunc::kMux2);
  EXPECT_FALSE(base_func_of("DFFRS").has_value());
}

// ---------------------------------------------------------------------------
// LUT lookup
// ---------------------------------------------------------------------------

TEST(Lut, BilinearAndExtrapolation) {
  Lut lut;
  lut.index1 = {10, 20};
  lut.index2 = {1, 2};
  lut.values = {1.0, 2.0, 3.0, 4.0};  // rows = slew
  EXPECT_DOUBLE_EQ(lut.lookup(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(lut.lookup(20, 2), 4.0);
  EXPECT_DOUBLE_EQ(lut.lookup(15, 1.5), 2.5);
  // Linear extrapolation beyond corners.
  EXPECT_DOUBLE_EQ(lut.lookup(30, 3), 7.0);
}

TEST(Lut, ScalarAndVector) {
  Lut scalar;
  scalar.values = {7.5};
  EXPECT_DOUBLE_EQ(scalar.lookup(123, 456), 7.5);

  Lut vec;
  vec.index2 = {1, 3};
  vec.values = {10, 30};
  EXPECT_DOUBLE_EQ(vec.lookup(0, 2), 20.0);
}

// ---------------------------------------------------------------------------
// synthetic library structure
// ---------------------------------------------------------------------------

class SyntheticLibTest : public ::testing::Test {
 protected:
  static const Library& lib() {
    static const Library instance = build_synthetic_90nm();
    return instance;
  }
};

TEST_F(SyntheticLibTest, AllFamiliesPresent) {
  for (const CellSpec& spec : synthetic_cell_specs()) {
    EXPECT_TRUE(lib().find_group(spec.base_name).has_value()) << spec.base_name;
  }
  EXPECT_GE(lib().groups().size(), 19u);
}

TEST_F(SyntheticLibTest, SixToEightSizesPerFamily) {
  // The paper: "6-8 sizes per gate type".
  for (const auto& group : lib().groups()) {
    EXPECT_GE(group.size_count(), 6u) << group.base_name();
    EXPECT_LE(group.size_count(), 8u) << group.base_name();
  }
}

TEST_F(SyntheticLibTest, GroupsSortedByDrive) {
  for (const auto& group : lib().groups()) {
    double prev = 0.0;
    for (const auto idx : group.sizes()) {
      EXPECT_GT(lib().cell(idx).drive, prev);
      prev = lib().cell(idx).drive;
    }
  }
}

TEST_F(SyntheticLibTest, DelayFallsWithDrive) {
  // Same family, same load: bigger cell is faster.
  const auto group = lib().find_group("NAND2");
  ASSERT_TRUE(group.has_value());
  const double slew = 40.0;
  const double load = 20.0;
  double prev = 1e9;
  for (std::uint16_t s = 0; s < lib().group(*group).size_count(); ++s) {
    const Cell& c = lib().cell_for(*group, s);
    const double d = c.arc_from(0).delay(slew, load);
    EXPECT_LT(d, prev) << c.name;
    prev = d;
  }
}

TEST_F(SyntheticLibTest, DelayRisesWithLoadAndSlew) {
  const auto group = lib().find_group("INV");
  ASSERT_TRUE(group.has_value());
  const Cell& c = lib().cell_for(*group, 2);
  EXPECT_LT(c.arc_from(0).delay(20, 5), c.arc_from(0).delay(20, 25));
  EXPECT_LT(c.arc_from(0).delay(10, 10), c.arc_from(0).delay(100, 10));
  EXPECT_LT(c.arc_from(0).output_slew(20, 5), c.arc_from(0).output_slew(20, 25));
}

TEST_F(SyntheticLibTest, CapacitanceAndAreaScaleWithDrive) {
  const auto group = lib().find_group("NOR2");
  ASSERT_TRUE(group.has_value());
  double prev_cap = 0.0;
  double prev_area = 0.0;
  for (std::uint16_t s = 0; s < lib().group(*group).size_count(); ++s) {
    const Cell& c = lib().cell_for(*group, s);
    EXPECT_GT(c.input_cap_ff(0), prev_cap);
    EXPECT_GT(c.area_um2, prev_area);
    prev_cap = c.input_cap_ff(0);
    prev_area = c.area_um2;
  }
}

TEST_F(SyntheticLibTest, EveryInputPinHasAnArc) {
  for (const Cell& c : lib().cells()) {
    for (std::size_t i = 0; i < c.arity(); ++i) {
      EXPECT_NO_THROW((void)c.arc_from(i)) << c.name;
      EXPECT_GT(c.input_cap_ff(i), 0.0);
    }
    EXPECT_GT(c.output().max_capacitance_ff, 0.0);
  }
}

TEST_F(SyntheticLibTest, InvertingCellsNamedZN) {
  EXPECT_EQ(lib().cell(*lib().find_cell("INV_X1")).output().name, "ZN");
  EXPECT_EQ(lib().cell(*lib().find_cell("AND2_X1")).output().name, "Z");
  EXPECT_EQ(lib().cell(*lib().find_cell("XNOR2_X1")).output().name, "ZN");
}

TEST_F(SyntheticLibTest, FindGroupByFunc) {
  const auto g = lib().find_group(netlist::GateFunc::kNand, 3);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(lib().group(*g).base_name(), "NAND3");
  EXPECT_FALSE(lib().find_group(netlist::GateFunc::kNand, 7).has_value());
  EXPECT_EQ(lib().max_arity(), 4u);
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

constexpr const char* kTinyLib = R"(
library (tiny) {
  /* comment */
  time_unit : "1ps";
  lu_table_template (lut2x2) {
    variable_1 : input_net_transition;
    variable_2 : total_output_net_capacitance;
    index_1("10, 20");
    index_2("1, 2");
  }
  cell (INV_X1) {
    area : 1.3;
    pin (A) { direction : input; capacitance : 1.8; }
    pin (ZN) {
      direction : output;
      function : "!A";
      max_capacitance : 40;
      timing () {
        related_pin : "A";
        cell_rise (lut2x2) { values("1, 2", "3, 4"); }
        cell_fall (lut2x2) { values("0.9, 1.8", "2.7, 3.6"); }
        rise_transition (lut2x2) { values("2, 4", "6, 8"); }
        fall_transition (lut2x2) { values("1, 3", "5, 7"); }
      }
    }
  }
}
)";

TEST(Parser, TinyLibrary) {
  auto lib = parse_library(kTinyLib);
  ASSERT_TRUE(lib.ok()) << lib.status().message();
  EXPECT_EQ(lib->name(), "tiny");
  ASSERT_EQ(lib->cells().size(), 1u);
  const Cell& inv = lib->cell(0);
  EXPECT_DOUBLE_EQ(inv.area_um2, 1.3);
  EXPECT_DOUBLE_EQ(inv.drive, 1.0);
  EXPECT_DOUBLE_EQ(inv.input_cap_ff(0), 1.8);
  // Template indices flow into the tables.
  EXPECT_DOUBLE_EQ(inv.arc_from(0).cell_rise.lookup(10, 1), 1.0);
  EXPECT_DOUBLE_EQ(inv.arc_from(0).cell_rise.lookup(20, 2), 4.0);
  // delay() is the worse of rise/fall.
  EXPECT_DOUBLE_EQ(inv.arc_from(0).delay(10, 1), 1.0);
}

TEST(Parser, NestingDepthIsCapped) {
  // 100k nested groups, one per line: an error at the first group past the
  // cap, not a stack overflow.
  std::string text = "library (deep) {\n";
  for (int i = 0; i < 100000; ++i) text += "g (x) {\n";
  for (int i = 0; i <= 100000; ++i) text += "}\n";
  const auto ast = parse_ast(text);
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(ast.status().message().find("line 65: groups nested deeper than 64"),
            std::string::npos)
      << ast.status().message();
}

TEST(Parser, InlineIndicesOverrideTemplate) {
  constexpr const char* text = R"(
library (t) {
  lu_table_template (tpl) { index_1("1, 2"); index_2("1, 2"); }
  cell (BUF_X1) {
    area : 1;
    pin (A) { direction : input; capacitance : 1; }
    pin (Z) {
      direction : output;
      function : "A";
      timing () {
        related_pin : "A";
        cell_rise (tpl) { index_1("100, 200"); index_2("10, 20"); values("1, 2", "3, 4"); }
        cell_fall (tpl) { index_1("100, 200"); index_2("10, 20"); values("1, 2", "3, 4"); }
      }
    }
  }
}
)";
  auto lib = parse_library(text);
  ASSERT_TRUE(lib.ok()) << lib.status().message();
  EXPECT_DOUBLE_EQ(lib->cell(0).arc_from(0).cell_rise.lookup(100, 10), 1.0);
}

TEST(Parser, ErrorsAreDescriptive) {
  EXPECT_FALSE(parse_library("not_a_library (x) { }").ok());
  EXPECT_FALSE(parse_library("library (x) { cell () { } }").ok());
  const auto missing_arc = parse_library(R"(
library (x) {
  cell (INV_X1) {
    area : 1;
    pin (A) { direction : input; capacitance : 1; }
    pin (ZN) { direction : output; function : "!A"; }
  }
}
)");
  ASSERT_FALSE(missing_arc.ok());
  EXPECT_NE(missing_arc.status().message().find("timing arc"), std::string::npos);
}

TEST(Parser, UnterminatedGroupFails) {
  EXPECT_FALSE(parse_library("library (x) { cell (C) { area : 1; ").ok());
}

TEST(Parser, NumberList) {
  auto xs = parse_number_list(" 1.5, 2 , 3e1 ");
  ASSERT_TRUE(xs.ok());
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_DOUBLE_EQ((*xs)[2], 30.0);
  EXPECT_FALSE(parse_number_list("1, banana").ok());
  EXPECT_TRUE(parse_number_list("").ok());
}

TEST(Parser, DuplicateCellNameRejected) {
  constexpr const char* text = R"(
library (t) {
  cell (INV_X1) {
    area : 1;
    pin (A) { direction : input; capacitance : 1; }
    pin (ZN) { direction : output; function : "!A";
      timing () { related_pin : "A"; cell_rise (s) { values("1"); } cell_fall (s) { values("1"); } }
    }
  }
  cell (INV_X1) {
    area : 2;
    pin (A) { direction : input; capacitance : 1; }
    pin (ZN) { direction : output; function : "!A";
      timing () { related_pin : "A"; cell_rise (s) { values("1"); } cell_fall (s) { values("1"); } }
    }
  }
}
)";
  // Note: "s" is not a declared template; use scalar-style values instead.
  const auto lib = parse_library(text);
  EXPECT_FALSE(lib.ok());
}

// ---------------------------------------------------------------------------
// writer round trip
// ---------------------------------------------------------------------------

TEST(Writer, SyntheticLibraryRoundTrips) {
  const Library original = build_synthetic_90nm();
  const std::string text = write_library(original);
  auto reparsed = parse_library(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();

  ASSERT_EQ(reparsed->cells().size(), original.cells().size());
  for (std::size_t i = 0; i < original.cells().size(); ++i) {
    const Cell& a = original.cell(i);
    const Cell& b = reparsed->cell(i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_NEAR(a.area_um2, b.area_um2, 1e-6);
    EXPECT_DOUBLE_EQ(a.drive, b.drive);
    ASSERT_EQ(a.pins.size(), b.pins.size());
    // Spot-check timing fidelity on a grid of query points.
    for (std::size_t p = 0; p < a.arity(); ++p) {
      for (double slew : {10.0, 77.0}) {
        for (double load : {2.0, 19.0}) {
          EXPECT_NEAR(a.arc_from(p).delay(slew, load), b.arc_from(p).delay(slew, load),
                      1e-4)
              << a.name;
        }
      }
    }
  }
  EXPECT_EQ(reparsed->groups().size(), original.groups().size());
}

}  // namespace
}  // namespace statsizer::liberty
