#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "liberty/model.h"
#include "liberty/synthetic.h"
#include "liberty/writer.h"
#include "util/fault.h"

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
  // The synthetic cells with INV_X1 renamed INV_XP: finalize() must accept
  // the library, keep INV_XP out of the INV sizing group, and not throw.
  const Library synthetic = build_synthetic_90nm();
  Library lib("malformed");
  for (Cell cell : synthetic.cells()) {
    if (cell.name == "INV_X1") cell.name = "INV_XP";
    lib.add_cell(std::move(cell));
  }
  Status finalized = Status::error("not finalized");
  EXPECT_NO_THROW(finalized = lib.finalize());
  ASSERT_TRUE(finalized.ok()) << finalized.message();
  ASSERT_TRUE(lib.find_cell("INV_XP").has_value());
  EXPECT_TRUE(lib.find_group("INV").has_value());
  EXPECT_FALSE(lib.find_group("INV_XP").has_value());
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
// library model validation
// ---------------------------------------------------------------------------

/// A one-input cell with one scalar arc from A: delays @p rise / @p fall,
/// transitions 1.
Cell tiny_inverter(std::string name, double rise = 1.0, double fall = 1.0) {
  Cell cell;
  cell.name = std::move(name);
  cell.area_um2 = 1.0;
  Pin in;
  in.name = "A";
  in.capacitance_ff = 1.0;
  Pin out;
  out.name = "ZN";
  out.direction = PinDirection::kOutput;
  out.function = "!A";
  TimingArc arc;
  arc.related_pin = "A";
  arc.cell_rise.values = {rise};
  arc.cell_fall.values = {fall};
  arc.rise_transition.values = {1.0};
  arc.fall_transition.values = {1.0};
  out.arcs.push_back(arc);
  cell.pins = {in, out};
  return cell;
}

TEST(LibraryModel, FinalizeRejectsDuplicateCellNames) {
  Library lib("dup");
  lib.add_cell(tiny_inverter("INV_X1"));
  lib.add_cell(tiny_inverter("INV_X1"));
  const Status s = lib.finalize();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate cell name: INV_X1"), std::string::npos) << s.message();
}

TEST(LibraryModel, FinalizeNamesAMissingTimingArc) {
  Cell cell = tiny_inverter("INV_X1");
  cell.pins[1].arcs.clear();
  Library lib("no_arc");
  lib.add_cell(std::move(cell));
  const Status s = lib.finalize();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing timing arc from pin A"), std::string::npos)
      << s.message();
}

TEST(LibraryModel, ArcDelayIsTheWorseOfRiseAndFall) {
  Library lib("worst");
  lib.add_cell(tiny_inverter("INV_X1", /*rise=*/1.0, /*fall=*/2.5));
  lib.add_cell(tiny_inverter("INV_X2", /*rise=*/3.0, /*fall=*/0.5));
  ASSERT_TRUE(lib.finalize().ok());
  EXPECT_DOUBLE_EQ(lib.cell(0).arc_from(0).delay(10, 1), 2.5);
  EXPECT_DOUBLE_EQ(lib.cell(1).arc_from(0).delay(10, 1), 3.0);
  EXPECT_DOUBLE_EQ(lib.cell(0).drive, 1.0);
  EXPECT_DOUBLE_EQ(lib.cell(1).drive, 2.0);
}

// ---------------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------------

/// The writer's number format.
std::string liberty_number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

TEST(Writer, SyntheticLibraryRoundTrips) {
  const Library lib = build_synthetic_90nm();
  const std::string text = write_library(lib);
  // FNV-1a of the whole text: any change to the exported library moves it.
  EXPECT_EQ(util::fnv1a(text), 0xb03c0cc20e0bf2adULL);
  EXPECT_EQ(text.size(), 1230923u);

  // Every cell's group carries its area and its output's max_transition.
  for (std::size_t i = 0; i < lib.cells().size(); ++i) {
    const Cell& cell = lib.cell(i);
    const std::size_t at = text.find("  cell (" + cell.name + ") {\n");
    ASSERT_NE(at, std::string::npos) << cell.name;
    const std::size_t end = text.find("\n  cell (", at + 1);
    const std::string group = text.substr(at, end == std::string::npos ? end : end - at);
    EXPECT_NE(group.find("    area : " + liberty_number(cell.area_um2) + ";\n"),
              std::string::npos)
        << cell.name;
    ASSERT_GT(cell.output().max_transition_ps, 0.0) << cell.name;
    EXPECT_NE(group.find("max_transition : " + liberty_number(cell.output().max_transition_ps) +
                         ";\n"),
              std::string::npos)
        << cell.name;
  }
}

}  // namespace
}  // namespace statsizer::liberty
