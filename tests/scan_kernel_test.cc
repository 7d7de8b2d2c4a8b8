// The compiled scan (docs/execution.md, "The parallel pipeline in front of
// it"): typed predicate kernels against the interpreted evaluator,
// direct-indexed grouping against the hash path, and the
// sudaf.input.gathered_bytes counter that shows which paths still copy
// input rows.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "engine/aggregation.h"
#include "engine/executor.h"
#include "engine/hash_join.h"
#include "engine/plan.h"
#include "engine/slot_program.h"
#include "expr/evaluator.h"
#include "gtest/gtest.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t k2p53 = int64_t{1} << 53;

// --- Predicate kernels -------------------------------------------------------

// p(x FLOAT64, i INT64, s STRING): every special double and the int64
// values around 2^53, where converting to double rounds; its 144 rows
// repeated `reps` times.
std::unique_ptr<Table> MakePredicateTable(int reps = 1) {
  const std::vector<double> xs = {kNaN, kInf, -kInf, -0.0, 0.0,   1.5,
                                  -1.5, 2.5,  1e308, -3.0, 0.5,
                                  9007199254740992.0};
  const std::vector<int64_t> is = {
      0,         1,     -1,        2,           3,
      -3,        k2p53 - 1, k2p53, k2p53 + 1, -(k2p53 + 1),
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  Schema schema;
  SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
  SUDAF_CHECK(schema.AddField({"i", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"s", DataType::kString}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  // Every (x, i) pair, so each value meets every other column's values.
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t a = 0; a < xs.size(); ++a) {
      for (size_t b = 0; b < is.size(); ++b) {
        table->column(0).AppendFloat64(xs[a]);
        table->column(1).AppendInt64(is[b]);
        table->column(2).AppendString((a + b + rep) % 3 == 0 ? "b" : "a");
      }
    }
  }
  table->FinishBulkAppend();
  return table;
}

// The interpreted selection: EvalRow over the whole WHERE tree, row by row.
std::vector<int64_t> InterpretedSelection(const Table& table, const Expr& where,
                                          int64_t lo, int64_t hi) {
  RowAccessor accessor = [&table](const std::string& col,
                                  int64_t row) -> Result<Value> {
    SUDAF_ASSIGN_OR_RETURN(const Column* c, table.GetColumn(col));
    return c->GetValue(row);
  };
  std::vector<int64_t> out;
  for (int64_t r = lo; r < hi; ++r) {
    Result<Value> v = EvalRow(where, accessor, r);
    SUDAF_CHECK_MSG(v.ok(), v.status().ToString());
    if (v->is_numeric() && v->AsDouble() != 0.0) out.push_back(r);
  }
  return out;
}

// Registers `flat`'s rows under `name` as the first `cuts[0]` rows, then
// one AppendRows per further cut: the same rows in several storage chunks.
void PutGrown(Catalog* catalog, const std::string& name, const Table& flat,
              const std::vector<int64_t>& cuts) {
  int64_t lo = 0;
  for (int64_t hi : cuts) {
    std::vector<int64_t> rows;
    for (int64_t r = lo; r < hi; ++r) rows.push_back(r);
    std::unique_ptr<Table> slice = GatherRows(flat, rows);
    if (lo == 0) {
      catalog->PutTable(name, std::move(slice));
    } else {
      SUDAF_CHECK(catalog->AppendRows(name, *slice).ok());
    }
    lo = hi;
  }
}

// The WHERE tree of `SELECT count(x) FROM p WHERE <sql>`.
ExprPtr ParseWhere(const std::string& sql) {
  Result<std::unique_ptr<SelectStatement>> stmt =
      ParseSelect("SELECT count(x) FROM p WHERE " + sql);
  SUDAF_CHECK_MSG(stmt.ok(), stmt.status().ToString());
  return std::move((*stmt)->where);
}

// The path CompileFilter fixes for `conjunct` of `table`.
enum class Path { kKernel, kProgram, kRow };
Path PathOf(const Expr& conjunct, const Table& table) {
  const CompiledFilter filter = CompileFilter({&conjunct}, table);
  if (!filter.kernels.empty()) return Path::kKernel;
  return filter.roots.empty() ? Path::kRow : Path::kProgram;
}

class ScanKernelTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_.PutTable("p", MakePredicateTable()); }

  const Table& table() { return **catalog_.GetTable("p"); }

  // The selection FilterAndJoin computes for WHERE `where` over [lo, hi),
  // with the identity range expanded.
  std::vector<int64_t> CompiledSelection(ExprPtr where, int threads,
                                         int64_t lo = 0, int64_t hi = -1,
                                         int morsel = 5) {
    SelectStatement stmt;
    stmt.tables = {"p"};
    stmt.where = std::move(where);
    Result<QueryPlan> plan = PlanQuery(stmt, catalog_);
    SUDAF_CHECK_MSG(plan.ok(), plan.status().ToString());
    ScanSpec scan;
    scan.begin = lo;
    scan.end = hi;
    ExecOptions opts;
    opts.parallel = threads > 1;
    opts.num_threads = threads;
    opts.morsel_size = morsel;
    opts.scan = &scan;
    Result<JoinedRows> joined = FilterAndJoin(*plan, opts);
    SUDAF_CHECK_MSG(joined.ok(), joined.status().ToString());
    if (joined->identity_base >= 0) {
      std::vector<int64_t> rows(joined->num_tuples);
      for (int64_t i = 0; i < joined->num_tuples; ++i) {
        rows[i] = joined->identity_base + i;
      }
      return rows;
    }
    return joined->rows[0];
  }

  // Checks compiled == interpreted for `where` at threads {1, 8}, with
  // 5-row morsels (many morsels, several per worker) and with 64K-row
  // ones (a morsel per chunk, several kVector steps in a large one).
  void ExpectSameSelection(const Expr& where, const std::string& what,
                           int64_t lo = 0, int64_t hi = -1) {
    const int64_t end = hi < 0 ? table().num_rows() : hi;
    const std::vector<int64_t> want =
        InterpretedSelection(table(), where, lo, end);
    for (int threads : {1, 8}) {
      for (int morsel : {5, 1 << 16}) {
        EXPECT_EQ(CompiledSelection(where.Clone(), threads, lo, hi, morsel),
                  want)
            << what << " threads=" << threads << " morsel=" << morsel;
      }
    }
  }

  Catalog catalog_;
};

const BinaryOp kCompareOps[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                                BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};

// Literal expressions: plain doubles (NaN, ±inf, ±0, fractions, 2^53) and
// int64 literals around 2^53, including one under unary minus.
std::vector<ExprPtr> Literals() {
  std::vector<ExprPtr> out;
  for (double v : {kNaN, kInf, -kInf, -0.0, 0.0, 1.5, -1.5, 2.5, 0.5,
                   9007199254740992.0}) {
    out.push_back(Expr::Literal(Value(v)));
  }
  for (int64_t v : {int64_t{3}, k2p53 - 1, k2p53, k2p53 + 1, -(k2p53 + 1)}) {
    out.push_back(Expr::Literal(Value(v)));
  }
  out.push_back(Expr::Unary(Expr::Literal(Value(0.0))));   // -0.0
  out.push_back(Expr::Unary(Expr::Literal(Value(k2p53 + 1))));
  return out;
}

TEST_F(ScanKernelTest, EveryOpAndLiteralSideMatchesInterpreted) {
  for (const char* col : {"x", "i"}) {
    for (BinaryOp op : kCompareOps) {
      for (const ExprPtr& lit : Literals()) {
        ExprPtr right =
            Expr::Binary(op, Expr::Column(col), lit->Clone());  // col op lit
        ExprPtr left =
            Expr::Binary(op, lit->Clone(), Expr::Column(col));  // lit op col
        ASSERT_TRUE(CompilePredicate(*right, table()).has_value())
            << right->ToString();
        ASSERT_TRUE(CompilePredicate(*left, table()).has_value())
            << left->ToString();
        ExpectSameSelection(*right, right->ToString());
        ExpectSameSelection(*left, left->ToString());
      }
    }
  }
}

TEST_F(ScanKernelTest, Int64ColumnComparesAsDouble) {
  // 2^53 + 1 rounds to 2^53 as a double: the interpreted evaluator and the
  // kernel both see i = 2^53 + 1 as equal to 2^53, and to the literal
  // 2^53 + 1 (which rounds the same way).
  ExprPtr eq = Expr::Binary(BinaryOp::kEq, Expr::Column("i"),
                            Expr::Literal(Value(k2p53 + 1)));
  std::vector<int64_t> rows = CompiledSelection(eq->Clone(), 1);
  ASSERT_FALSE(rows.empty());
  for (int64_t r : rows) {
    const int64_t v = table().column(1).GetInt64(r);
    EXPECT_TRUE(v == k2p53 || v == k2p53 + 1) << v;
  }
  ExpectSameSelection(*eq, eq->ToString());
  // A fractional literal against integers.
  ExprPtr lt = Expr::Binary(BinaryOp::kLt, Expr::Column("i"),
                            Expr::Literal(Value(2.5)));
  ExpectSameSelection(*lt, lt->ToString());
}

// Each shape takes the path its expression and column types fix: a typed
// kernel for `column op literal`, the compiled program for other numeric
// conjuncts, EvalRow for strings.
TEST_F(ScanKernelTest, OtherShapesFallBack) {
  const std::pair<const char*, Path> shapes[] = {
      {"x > 1.5", Path::kKernel},      {"s = 'b'", Path::kRow},
      {"x + 1 > 2", Path::kProgram},   {"x > i", Path::kProgram},
      {"2 > x * 0", Path::kProgram},
  };
  for (const auto& [sql, path] : shapes) {
    ExprPtr where = ParseWhere(sql);
    EXPECT_EQ(CompilePredicate(*where, table()).has_value(),
              path == Path::kKernel)
        << sql;
    EXPECT_EQ(PathOf(*where, table()), path) << sql;
    ExpectSameSelection(*where, sql);
  }
}

// Numeric conjuncts that are not `column op literal`: arithmetic, column
// vs column, NaN, ±inf, -0.0 and 2^53 ± 1, constant and column exponents,
// scalar functions, NOT, and AND/OR nested inside one conjunct.
const char* const kResidualShapes[] = {
    "x + 1 > 2", "x * 2 - 1 <= 0.5", "-x < 1.5", "2 > x * 0", "x / i > 0",
    "x / 0 > 0", "x * 1e308 >= 1e308", "x - x = 0", "x > i", "x * i <> i",
    "i <= x", "x = i", "x <> x", "x + 0 = -0.0", "-0.0 = x * 1",
    "x * 0 = 0", "i + 0 = 9007199254740993", "i - 1 >= 9007199254740992",
    "i * 1 = 9007199254740991", "x^3 > 2", "x^-2 < 1", "x^0.5 >= 0",
    "x^i > 1", "pow(x, 2) > 4", "power(i, 0.5) < 3", "x^(1/2) > 1",
    "x^1.5 > 1", "i^2 = 9", "(x + 1)^4 > 16", "sqrt(abs(x)) > 1",
    "ln(x) < 0", "exp(x) > 1", "sgn(i) < 0", "nullif(x, 0) > 0",
    "log(2, abs(x)) > 0", "NOT (x > 1)", "NOT x", "x > 1 OR i < 0",
    "x > 1 OR (i < 0 AND x * 2 <> 3)", "NOT (x > 0 AND i > 0) OR x <> x",
    "i IN (1, 3, -3)", "x NOT BETWEEN -1.5 AND 2.5"};

// Every residual compiles into the program and selects exactly the rows
// EvalRow selects, on the flat table and on the same rows grown by
// appends into several chunks.
TEST_F(ScanKernelTest, CompiledResidualsMatchInterpreted) {
  const std::unique_ptr<Table> flat = MakePredicateTable();
  const int64_t n = flat->num_rows();
  for (bool grown : {false, true}) {
    if (grown) {
      PutGrown(&catalog_, "p", *flat, {61, 91, 113, 120, 127, 134, 140, n});
      ASSERT_GT(table().ChunkEnds().size(), 1u);
    }
    for (const char* sql : kResidualShapes) {
      ExprPtr where = ParseWhere(sql);
      EXPECT_EQ(PathOf(*where, table()), Path::kProgram) << sql;
      ExpectSameSelection(*where,
                          std::string(sql) + (grown ? " grown" : " flat"));
    }
  }
}

// Conjuncts the program refuses take EvalRow: a string column or literal,
// and (path only: EvalRow fails on them) an unknown name or function and
// an aggregate.
TEST_F(ScanKernelTest, StringShapesTakeEvalRow) {
  for (const char* sql : {"s = 'b'", "x > 0 OR s = 'a'", "s IN ('a')",
                          "NOT (s < 'b')"}) {
    ExprPtr where = ParseWhere(sql);
    EXPECT_EQ(PathOf(*where, table()), Path::kRow) << sql;
    ExpectSameSelection(*where, sql);
  }
  for (const char* sql : {"nosuch > 0", "nosuch(x) > 0", "count(x) > 0"}) {
    EXPECT_EQ(PathOf(*ParseWhere(sql), table()), Path::kRow) << sql;
  }
}

// One table's conjuncts share one program, and its subterms.
TEST_F(ScanKernelTest, ConjunctsShareOneProgram) {
  const std::string sql = "x * i > 1 AND x * i < 5 AND s = 'a' AND x > 0";
  Result<std::unique_ptr<SelectStatement>> stmt =
      ParseSelect("SELECT count(x) FROM p WHERE " + sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanQuery(**stmt, catalog_));
  std::vector<const Expr*> conjuncts;
  for (const TableFilter& f : plan.filters) conjuncts.push_back(f.predicate);
  ASSERT_EQ(conjuncts.size(), 4u);
  const CompiledFilter filter = CompileFilter(conjuncts, table());
  EXPECT_EQ(filter.kernels.size(), 1u);
  EXPECT_EQ(filter.roots.size(), 2u);
  EXPECT_EQ(filter.interpreted.size(), 1u);
  EXPECT_GT(filter.program.num_shared_slots(), 0);  // one x*i slot
  ExpectSameSelection(*(*stmt)->where, sql);
}

// A table larger than kVector: a 64K-row morsel runs several kVector
// steps, all three paths together, flat and with chunk ends off the
// kVector grid.
TEST_F(ScanKernelTest, VectorStepsInsideAMorsel) {
  const std::unique_ptr<Table> flat = MakePredicateTable(30);
  const int64_t n = flat->num_rows();
  ASSERT_GT(n, 2 * kVector);
  catalog_.PutTable("p", MakePredicateTable(30));
  for (bool grown : {false, true}) {
    if (grown) {
      PutGrown(&catalog_, "p", *flat, {2500, 3900, 4200, n});
      ASSERT_EQ(table().ChunkEnds(),
                (std::vector<int64_t>{2500, 3900, 4200, n}));
    }
    for (const char* sql :
         {"x^3 > 2", "x * i <> i", "x^3 > 2 AND s = 'b' AND i > 0",
          "x > 0.5 AND x^-2 < 1", "x > i OR s = 'a'"}) {
      ExprPtr where = ParseWhere(sql);
      ExpectSameSelection(*where,
                          std::string(sql) + (grown ? " grown" : " flat"));
      ExpectSameSelection(*where, std::string(sql) + " bounded", 333,
                          n - 500);
    }
  }
}

TEST_F(ScanKernelTest, ConjunctionsOfCompiledAndFallback) {
  for (const char* sql :
       {"x > 0 AND s = 'b'", "s = 'a' AND i >= 3 AND x * 2 < 5",
        "x <> x AND i > 0", "i < 0 AND x >= -1.5 AND x + 0 <> 0.5",
        "s = 'b' AND x * 1 > 0 AND -0.0 = x", "x > 1e308 AND s = 'a'"}) {
    Result<std::unique_ptr<SelectStatement>> stmt =
        ParseSelect(std::string("SELECT count(x) FROM p WHERE ") + sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    ExpectSameSelection(*(*stmt)->where, sql);
  }
}

TEST_F(ScanKernelTest, ScanBoundsLimitTheSelection) {
  const int64_t n = table().num_rows();
  ExprPtr where = Expr::Binary(BinaryOp::kGe, Expr::Column("x"),
                               Expr::Literal(Value(-1.5)));
  ExpectSameSelection(*where, "bounded", 7, n - 11);
  ExpectSameSelection(*where, "from 13", 13, -1);
  ExpectSameSelection(*where, "empty", 20, 20);
  // Unfiltered and bounded: the identity range, no row vector.
  SelectStatement stmt;
  stmt.tables = {"p"};
  ASSERT_OK_AND_ASSIGN(QueryPlan plan, PlanQuery(stmt, catalog_));
  ScanSpec scan;
  scan.begin = 9;
  scan.end = n - 2;
  ExecOptions opts;
  opts.scan = &scan;
  ASSERT_OK_AND_ASSIGN(JoinedRows joined, FilterAndJoin(plan, opts));
  EXPECT_EQ(joined.identity_base, 9);
  EXPECT_EQ(joined.num_tuples, n - 11);
  EXPECT_TRUE(joined.rows[0].empty());
}

// The predicate table grown by appends: morsels split at its chunk ends,
// and the selection equals the interpreted one over the flat rows.
TEST_F(ScanKernelTest, GrownTableSelectionMatchesInterpreted) {
  const std::unique_ptr<Table> flat = MakePredicateTable();
  const int64_t n = flat->num_rows();
  PutGrown(&catalog_, "p", *flat, {61, 91, 113, 120, 127, 134, 140, 143, n});
  ASSERT_EQ(table().ChunkEnds(),
            (std::vector<int64_t>{61, 91, 113, 127, 134, 140, 143, n}));
  for (const char* sql :
       {"x > 0 AND s = 'b'", "s = 'a' AND i >= 3 AND x * 2 < 5",
        "i < 0 AND x >= -1.5 AND x + 0 <> 0.5", "x >= -1.5"}) {
    Result<std::unique_ptr<SelectStatement>> stmt =
        ParseSelect(std::string("SELECT count(x) FROM p WHERE ") + sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const Expr& where = *(*stmt)->where;
    for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
             {0, n}, {7, n - 11}, {60, 62}, {95, 130}}) {
      const std::vector<int64_t> want =
          InterpretedSelection(*flat, where, lo, hi);
      for (int threads : {1, 8}) {
        EXPECT_EQ(CompiledSelection(where.Clone(), threads, lo, hi), want)
            << sql << " [" << lo << ", " << hi << ") threads=" << threads;
      }
    }
  }
}

// --- Direct-indexed grouping -----------------------------------------------

// Groups `keys` (columns of `table`, over `row_ids` or the identity range)
// on the auto path and on the forced hash path, and checks the two agree
// bit for bit; returns whether the auto path indexed directly.
bool ExpectGroupingMatchesHash(const Table& table,
                               const std::vector<std::string>& keys,
                               const std::vector<int64_t>& row_ids,
                               const std::string& ctx) {
  auto prepare = [&](bool allow_direct) {
    PreparedInput in;
    in.source = &table;
    in.row_ids = row_ids;
    in.num_input_rows = row_ids.empty()
                            ? table.num_rows()
                            : static_cast<int64_t>(row_ids.size());
    Status st = BuildGroups(keys, &in, allow_direct);
    SUDAF_CHECK_MSG(st.ok(), st.ToString());
    return in;
  };
  PreparedInput direct = prepare(true);
  PreparedInput hash = prepare(false);
  EXPECT_FALSE(hash.direct_groups) << ctx;
  EXPECT_EQ(direct.num_groups, hash.num_groups) << ctx;
  EXPECT_EQ(direct.group_ids, hash.group_ids) << ctx;
  const Table& a = *direct.group_keys;
  const Table& b = *hash.group_keys;
  EXPECT_EQ(a.num_rows(), b.num_rows()) << ctx;
  EXPECT_EQ(a.num_columns(), b.num_columns()) << ctx;
  for (int c = 0; c < a.num_columns() && a.num_rows() == b.num_rows(); ++c) {
    EXPECT_EQ(a.column(c).type(), b.column(c).type()) << ctx;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.column(c).GetValue(r).ToString(),
                b.column(c).GetValue(r).ToString())
          << ctx << " key row " << r;
    }
    if (a.column(c).type() == DataType::kString) {
      EXPECT_EQ(a.column(c).string_codes(), b.column(c).string_codes())
          << ctx;
      EXPECT_EQ(a.column(c).dictionary(), b.column(c).dictionary()) << ctx;
    }
  }
  return direct.direct_groups;
}

// k1 INT64, k2 INT64, ks STRING over `n` rows produced by `key`.
std::unique_ptr<Table> MakeKeyTable(int64_t n, Rng* rng, int64_t span,
                                    int64_t offset, int64_t stride) {
  Schema schema;
  SUDAF_CHECK(schema.AddField({"k1", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"k2", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"ks", DataType::kString}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(rng->NextBelow(span));
    table->column(0).AppendInt64(offset + v * stride);
    table->column(1).AppendInt64(static_cast<int64_t>(rng->NextBelow(3)));
    table->column(2).AppendString("k" + std::to_string(v % 41));
  }
  table->FinishBulkAppend();
  return table;
}

constexpr int64_t kGroupRows = 70000;

TEST(DirectGroupingTest, MatchesHashPathBitwise) {
  struct Case {
    const char* what;
    int64_t span, offset, stride;
    std::vector<std::string> keys;
    bool want_direct;
  };
  const std::vector<Case> cases = {
      {"dense", 1000, 0, 1, {"k1"}, true},
      {"negative", 600, -300, 1, {"k1"}, true},
      {"one group", 1, 7, 1, {"k1"}, true},
      {"sparse", 1000, 0, 1000000007, {"k1"}, false},
      {"string", 1000, 0, 1, {"ks"}, true},
      {"two columns", 100, 0, 1, {"k1", "k2"}, false},
  };
  for (const Case& c : cases) {
    Rng rng(20261017);
    std::unique_ptr<Table> table =
        MakeKeyTable(kGroupRows, &rng, c.span, c.offset, c.stride);
    // Every third row, as a WHERE selection would pass them.
    std::vector<int64_t> selected;
    for (int64_t r = 1; r < kGroupRows; r += 3) selected.push_back(r);
    EXPECT_EQ(ExpectGroupingMatchesHash(*table, c.keys, {},
                                        std::string(c.what) + " identity"),
              c.want_direct)
        << c.what;
    EXPECT_EQ(ExpectGroupingMatchesHash(*table, c.keys, selected,
                                        std::string(c.what) + " row ids"),
              c.want_direct)
        << c.what;
  }
}

TEST(DirectGroupingTest, ExtremeKeysTakeTheHashPath) {
  Schema schema;
  ASSERT_OK(schema.AddField({"k1", DataType::kInt64}));
  Table table(std::move(schema));
  for (int64_t v : {std::numeric_limits<int64_t>::max(), int64_t{0},
                    std::numeric_limits<int64_t>::min(), int64_t{0}}) {
    table.column(0).AppendInt64(v);
  }
  table.FinishBulkAppend();
  EXPECT_FALSE(ExpectGroupingMatchesHash(table, {"k1"}, {}, "extremes"));
}

// Enough two-key groups that the hash table grows many times past its
// initial 1024 slots: ids, group count and key rows must equal a
// first-occurrence std::map reference, over the identity range and over a
// selection.
TEST(HashGroupingTest, ManyTwoKeyGroupsMatchAMapReference) {
  constexpr int64_t kRows = 240000;
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"b", DataType::kInt64}));
  Table table(std::move(schema));
  Rng rng(20261019);
  for (int64_t i = 0; i < kRows; ++i) {
    table.column(0).AppendInt64(static_cast<int64_t>(rng.NextBelow(600)));
    table.column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(900)) -
                                450);
  }
  table.FinishBulkAppend();
  std::vector<int64_t> selected;
  for (int64_t r = 0; r < kRows; r += 2) selected.push_back(r);

  for (bool use_rows : {false, true}) {
    const std::string what = use_rows ? "row ids" : "identity";
    PreparedInput in;
    in.source = &table;
    if (use_rows) in.row_ids = selected;
    in.num_input_rows =
        use_rows ? static_cast<int64_t>(selected.size()) : kRows;
    ASSERT_OK(BuildGroups({"a", "b"}, &in));
    EXPECT_FALSE(in.direct_groups) << what;

    std::map<std::pair<int64_t, int64_t>, int32_t> id_of;
    std::vector<int32_t> want_ids;
    std::vector<std::pair<int64_t, int64_t>> want_keys;
    for (int64_t i = 0; i < in.num_input_rows; ++i) {
      const int64_t row = use_rows ? selected[i] : i;
      const std::pair<int64_t, int64_t> key{table.column(0).GetInt64(row),
                                            table.column(1).GetInt64(row)};
      auto [it, inserted] =
          id_of.emplace(key, static_cast<int32_t>(want_keys.size()));
      if (inserted) want_keys.push_back(key);
      want_ids.push_back(it->second);
    }
    ASSERT_GE(want_keys.size(), 100000u) << what;
    EXPECT_EQ(in.num_groups, static_cast<int32_t>(want_keys.size())) << what;
    EXPECT_EQ(in.group_ids, want_ids) << what;
    ASSERT_EQ(in.group_keys->num_rows(),
              static_cast<int64_t>(want_keys.size()))
        << what;
    for (size_t g = 0; g < want_keys.size(); ++g) {
      ASSERT_EQ(in.group_keys->column(0).GetInt64(g), want_keys[g].first)
          << what << " group " << g;
      ASSERT_EQ(in.group_keys->column(1).GetInt64(g), want_keys[g].second)
          << what << " group " << g;
    }
  }
}

// --- Fused pass over the row map -------------------------------------------

// Bitwise table equality (FLOAT64 cells compared as bit patterns).
void ExpectBitIdentical(const Table& a, const Table& b,
                        const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int c = 0; c < a.num_columns(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      const Value va = a.column(c).GetValue(r);
      const Value vb = b.column(c).GetValue(r);
      if (a.column(c).type() == DataType::kFloat64) {
        const double da = va.AsDouble();
        const double db = vb.AsDouble();
        ASSERT_EQ(0, std::memcmp(&da, &db, sizeof(double)))
            << what << " col " << c << " row " << r << ": " << da << " vs "
            << db;
      } else {
        ASSERT_EQ(va.ToString(), vb.ToString()) << what << " row " << r;
      }
    }
  }
}

// Grouping a table grown by appends — key runs split at its chunk ends —
// gives the ids and keys of the same rows in one chunk, on the direct and
// the hash path.
TEST(DirectGroupingTest, GrownTableMatchesOneChunkBitwise) {
  for (const char* key : {"k1", "ks"}) {
    Rng rng(20261017);
    const std::unique_ptr<Table> flat =
        MakeKeyTable(kGroupRows, &rng, 1000, -300, 1);
    Catalog catalog;
    PutGrown(&catalog, "k", *flat, {40000, 50000, 60000, 65000, kGroupRows});
    const Table& grown = **catalog.GetTable("k");
    ASSERT_EQ(grown.ChunkEnds(),
              (std::vector<int64_t>{40000, 60000, kGroupRows}));
    std::vector<int64_t> selected;
    for (int64_t r = 1; r < kGroupRows; r += 3) selected.push_back(r);
    for (bool use_rows : {true, false}) {
      const std::vector<int64_t> row_ids =
          use_rows ? selected : std::vector<int64_t>{};
      const std::string what =
          std::string(key) + (use_rows ? " row ids" : " identity");
      EXPECT_TRUE(
          ExpectGroupingMatchesHash(grown, {key}, row_ids, "grown " + what));
      auto prepare = [&](const Table& t) {
        PreparedInput in;
        in.source = &t;
        in.row_ids = row_ids;
        in.num_input_rows = row_ids.empty()
                                ? t.num_rows()
                                : static_cast<int64_t>(row_ids.size());
        SUDAF_CHECK(BuildGroups({key}, &in).ok());
        return in;
      };
      const PreparedInput a = prepare(grown);
      const PreparedInput b = prepare(*flat);
      EXPECT_TRUE(a.direct_groups) << what;
      EXPECT_EQ(a.group_ids, b.group_ids) << what;
      ExpectBitIdentical(*a.group_keys, *b.group_keys, what);
    }
  }
}

ExecOptions SmallMorsels(int threads) {
  ExecOptions exec;
  exec.parallel = threads > 1;
  exec.num_threads = threads;
  exec.morsel_size = 1024;
  return exec;
}

// The fused pass reading t's columns through the WHERE selection (float64
// slots loaded by row id, int64 slots converted by row id) answers bit for
// bit like the same pass over a table holding only the selected rows.
TEST(FusedScanTest, SelectionReadsMatchAPrefilteredTable) {
  Rng rng(99);
  std::vector<int64_t> g, fg;
  std::vector<double> x, y, fx, fy;
  for (int i = 0; i < 20000; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(37)) - 10);
    x.push_back(rng.NextDoubleIn(0.25, 4.0));
    y.push_back(rng.NextDoubleIn(-2.0, 2.0));
    if (y.back() > -0.5) {
      fg.push_back(g.back());
      fx.push_back(x.back());
      fy.push_back(y.back());
    }
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));
  catalog.PutTable("f", testing_util::MakeXyTable(fg, fx, fy));
  const std::string items = "SELECT g, kurtosis(x), sum(g * x), var(y) FROM ";
  for (int threads : {1, 8}) {
    SudafSession a(&catalog, SessionOptions{}.set_exec(SmallMorsels(threads)));
    SudafSession b(&catalog, SessionOptions{}.set_exec(SmallMorsels(threads)));
    ASSERT_OK_AND_ASSIGN(
        QueryResult filtered,
        a.Execute(items + "t WHERE y > -0.5 GROUP BY g",
                  ExecMode::kSudafShare));
    ASSERT_OK_AND_ASSIGN(
        QueryResult prefiltered,
        b.Execute(items + "f GROUP BY g", ExecMode::kSudafShare));
    EXPECT_EQ(filtered.stats.gathered_bytes, 0);
    ExpectBitIdentical(*filtered.table, *prefiltered.table,
                       "threads=" + std::to_string(threads));
  }
}

// A delta refresh of an unfiltered scan reads the appended rows as an
// identity range from the old table size; with two appends since the
// cached pass it must keep both segment boundaries, or its chunk tree —
// and the refreshed answer — drifts from the cold pass.
TEST(FusedScanTest, MultiSegmentDeltaOfAnIdentityRange) {
  Rng rng(5);
  auto rows = [&rng](int n) {
    std::vector<int64_t> g;
    std::vector<double> x, y;
    for (int i = 0; i < n; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(9)));
      x.push_back(rng.NextDoubleIn(0.1, 10.0));
      y.push_back(0);
    }
    return testing_util::MakeXyTable(g, x, y);
  };
  const std::string sql = "SELECT g, var(x), skewness(x) FROM t GROUP BY g";
  for (int threads : {1, 8}) {
    Catalog catalog;
    catalog.PutTable("t", rows(3000));
    SudafSession session(&catalog,
        SessionOptions{}.set_exec(SmallMorsels(threads)));
    ASSERT_OK(session.Execute(sql, ExecMode::kSudafShare).status());
    ASSERT_OK(catalog.AppendRows("t", *rows(1500)));
    ASSERT_OK(catalog.AppendRows("t", *rows(700)));
    ASSERT_OK_AND_ASSIGN(QueryResult warm,
                         session.Execute(sql, ExecMode::kSudafShare));
    EXPECT_EQ(warm.stats.cache_delta_refreshes, 1);
    SudafSession cold_session(&catalog,
        SessionOptions{}.set_exec(SmallMorsels(threads)));
    ASSERT_OK_AND_ASSIGN(QueryResult cold,
                         cold_session.Execute(sql, ExecMode::kSudafShare));
    ExpectBitIdentical(*warm.table, *cold.table,
                       "threads=" + std::to_string(threads));
  }
}

// --- Gathered bytes ----------------------------------------------------------

class GatheredBytesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 5000; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(40)));
      x.push_back(rng.NextDoubleIn(0.25, 4.0));
      y.push_back(rng.NextDoubleIn(-2.0, 2.0));
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
    Schema schema;
    SUDAF_CHECK(schema.AddField({"k", DataType::kInt64}).ok());
    SUDAF_CHECK(schema.AddField({"w", DataType::kFloat64}).ok());
    auto dim = std::make_unique<Table>(std::move(schema));
    for (int k = 0; k < 40; ++k) {
      dim->column(0).AppendInt64(k);
      dim->column(1).AppendFloat64(k * 0.5);
    }
    dim->FinishBulkAppend();
    catalog_.PutTable("d", std::move(dim));
  }

  Catalog catalog_;
};

TEST_F(GatheredBytesTest, SingleTableFusedScansCopyNothing) {
  SudafSession session(&catalog_);
  for (const char* sql :
       {"SELECT g, var(x) FROM t WHERE x > 0.5 GROUP BY g",
        "SELECT g, kurtosis(x) FROM t GROUP BY g",
        "SELECT sum(x * y), count(x) FROM t WHERE y < 1.0"}) {
    ASSERT_OK_AND_ASSIGN(QueryResult r,
                         session.Execute(sql, ExecMode::kSudafShare));
    EXPECT_TRUE(r.stats.scanned_base_data) << sql;
    EXPECT_EQ(r.stats.gathered_bytes, 0) << sql;
    EXPECT_NE(r.ProfileJson().find("\"gathered_bytes\": 0"),
              std::string::npos)
        << sql;
  }
  EXPECT_EQ(session.metrics().Snapshot().counter("sudaf.input.gathered_bytes"),
            0);

  // A shared-scan batch: one fused pass for both queries, no frame.
  SudafSession batch_session(&catalog_);
  BatchExecStats bstats;
  std::vector<Result<QueryResult>> results = batch_session.ExecuteBatch(
      {"SELECT g, var(x) FROM t WHERE x > 1.0 GROUP BY g",
       "SELECT g, skewness(x) FROM t WHERE x > 1.0 GROUP BY g"},
      ExecMode::kSudafShare, &bstats);
  ASSERT_EQ(bstats.queries_coalesced, 2);
  for (const Result<QueryResult>& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.gathered_bytes, 0);
  }
}

TEST_F(GatheredBytesTest, DeltaRefreshCopiesNothing) {
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(
                            {1, 2, 3, 1}, {1.0, 2.0, 3.0, 4.0}, {0, 0, 0, 0}));
  SudafSession session(&catalog);
  const std::string sql = "SELECT g, var(x) FROM t WHERE x > 1.5 GROUP BY g";
  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       session.Execute(sql, ExecMode::kSudafShare));
  EXPECT_EQ(cold.stats.gathered_bytes, 0);
  ASSERT_OK(catalog.AppendRows(
      "t", *testing_util::MakeXyTable({2, 4}, {5.0, 6.0}, {0, 0})));
  ASSERT_OK_AND_ASSIGN(QueryResult warm,
                       session.Execute(sql, ExecMode::kSudafShare));
  EXPECT_EQ(warm.stats.cache_delta_refreshes, 1);
  EXPECT_EQ(warm.stats.gathered_bytes, 0);
}

TEST_F(GatheredBytesTest, JoinsAndLegacyPathsGather) {
  SudafSession session(&catalog_);
  ASSERT_OK_AND_ASSIGN(
      QueryResult join,
      session.Execute("SELECT g, sum(x * w) FROM t, d WHERE g = k GROUP BY g",
                      ExecMode::kSudafShare));
  EXPECT_GT(join.stats.gathered_bytes, 0);
  EXPECT_EQ(session.metrics().Snapshot().counter("sudaf.input.gathered_bytes"),
            join.stats.gathered_bytes);
}

// Engine mode's interpreted UDAFs read their arguments in place. Over a
// table grown by appends, filtered or not, each answers bit for bit like
// the same query over the rows in one chunk, with the partitioned model
// off and on, and copies nothing. A join still gathers its frame.
TEST_F(GatheredBytesTest, EngineModeUdafsReadInPlace) {
  Rng rng(31);
  std::vector<int64_t> g;
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 6000; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(40)));
    x.push_back(rng.NextDoubleIn(0.25, 4.0));
    y.push_back(rng.NextDoubleIn(-2.0, 2.0));
  }
  std::unique_ptr<Table> flat = testing_util::MakeXyTable(g, x, y);
  PutGrown(&catalog_, "grown", *flat, {3000, 4500, 5300, 5700, 6000});
  catalog_.PutTable("flat", std::move(flat));
  ASSERT_GT((*catalog_.GetTable("grown"))->ChunkEnds().size(), 1u);

  for (bool partitioned : {false, true}) {
    ExecOptions exec;
    exec.partitioned = partitioned;
    exec.num_partitions = 4;
    for (const char* where : {"", " WHERE y > -0.5"}) {
      for (const char* udaf : {"qm(x)", "theta1(x, y)", "kurtosis(x)"}) {
        auto sql = [&](const char* table) {
          return std::string("SELECT g, ") + udaf + " FROM " + table + where +
                 " GROUP BY g";
        };
        const std::string what = sql("grown") +
                                 (partitioned ? " partitioned" : " serial");
        SudafSession session(&catalog_, SessionOptions{}.set_exec(exec));
        ASSERT_OK_AND_ASSIGN(QueryResult got,
                             session.Execute(sql("grown"), ExecMode::kEngine));
        ASSERT_OK_AND_ASSIGN(QueryResult want,
                             session.Execute(sql("flat"), ExecMode::kEngine));
        EXPECT_EQ(got.stats.gathered_bytes, 0) << what;
        EXPECT_EQ(want.stats.gathered_bytes, 0) << what;
        ExpectBitIdentical(*got.table, *want.table, what);
      }
    }
  }

  SudafSession session(&catalog_);
  ASSERT_OK_AND_ASSIGN(
      QueryResult join,
      session.Execute("SELECT g, qm(x * w) FROM t, d WHERE g = k GROUP BY g",
                      ExecMode::kEngine));
  EXPECT_GT(join.stats.gathered_bytes, 0);
}

}  // namespace
}  // namespace sudaf
