#include "engine/slot_program.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "storage/column.h"

namespace sudaf {

int SlotProgram::Intern(Slot slot, const std::string& key) {
  auto [it, inserted] = memo_.emplace(key, static_cast<int>(slots_.size()));
  if (!inserted) {
    ++slots_[it->second].dedup_hits;
    return it->second;
  }
  slots_.push_back(std::move(slot));
  return it->second;
}

int SlotProgram::MakeUnary(Slot::Kind kind, const char* tag, int child) {
  Slot s;
  s.kind = kind;
  s.a = child;
  return Intern(std::move(s),
                std::string(tag) + "|" + std::to_string(child));
}

int SlotProgram::MakeArith(Slot::Kind kind, const char* tag, int a, int b) {
  // + and * commute exactly in IEEE arithmetic; normalize operand order so
  // x*y and y*x intern to one slot.
  if (kind == Slot::Kind::kAdd || kind == Slot::Kind::kMul) {
    if (a > b) std::swap(a, b);
  }
  Slot s;
  s.kind = kind;
  s.a = a;
  s.b = b;
  return Intern(std::move(s), std::string(tag) + "|" + std::to_string(a) +
                                  "|" + std::to_string(b));
}

int SlotProgram::MakeLiteral(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Slot s;
  s.kind = Slot::Kind::kLiteral;
  s.literal = v;
  return Intern(std::move(s), "lit|" + std::to_string(bits));
}

// A constant exponent is lowered as LowerPow says, onto shared slots:
// x^4 = (x^3)·x reuses the x^3 and x^2 slots that sibling expressions
// (kurtosis's sum(x^3), sum(x^2), or its m^2 and m^4) already need.
Result<int> SlotProgram::BuildPow(const Expr& base, const Expr& exponent,
                                  const SlotLeaves& leaves) {
  double c = 0.0;
  const bool constant = FoldConstant(exponent, &c);
  const PowLowering low = constant ? LowerPow(c) : PowLowering{};
  if (low.kind == PowLowering::Kind::kOne) return MakeLiteral(1.0);
  SUDAF_ASSIGN_OR_RETURN(int b, Add(base, leaves));
  int cur = b;
  switch (low.kind) {
    case PowLowering::Kind::kPow: {
      int e = 0;
      if (constant) {
        e = MakeLiteral(c);
      } else {
        SUDAF_ASSIGN_OR_RETURN(e, Add(exponent, leaves));
      }
      return MakeArith(Slot::Kind::kPow, "pow", b, e);
    }
    case PowLowering::Kind::kOne:
      break;
    case PowLowering::Kind::kHalf:
      cur = MakeUnary(Slot::Kind::kPowHalf, "powhalf", b);
      break;
    case PowLowering::Kind::kChain:
      for (int i = 2; i <= low.factors; ++i) {
        cur = MakeArith(Slot::Kind::kMul, "mul", cur, b);
      }
      break;
  }
  if (low.recip) cur = MakeUnary(Slot::Kind::kRecip, "recip", cur);
  return cur;
}

Result<int> SlotProgram::Add(const Expr& e, const SlotLeaves& leaves) {
  double folded = 0.0;
  if (e.kind != ExprKind::kLiteral && FoldConstant(e, &folded)) {
    return MakeLiteral(folded);
  }
  switch (e.kind) {
    case ExprKind::kLiteral: {
      if (!e.literal.is_numeric()) {
        return Status::TypeError("string literal in numeric vector context");
      }
      return MakeLiteral(e.literal.AsDouble());
    }
    case ExprKind::kColumnRef: {
      if (leaves.columns == nullptr) {
        return Status::TypeError(
            "column reference in terminating function: " + e.column);
      }
      SUDAF_ASSIGN_OR_RETURN(BoundColumn bound, (*leaves.columns)(e.column));
      const Column* col = bound.col;
      if (col->type() == DataType::kString) {
        return Status::TypeError("string column in numeric context: " +
                                 e.column);
      }
      Slot s;
      s.col = col;
      s.rows = bound.rows;
      s.base = bound.base;
      std::string key;
      if (col->type() == DataType::kFloat64) {
        s.kind = Slot::Kind::kColumnF64;
        key = "cf|";
      } else {
        s.kind = Slot::Kind::kColumnI64;
        key = "ci|";
      }
      key += std::to_string(reinterpret_cast<uintptr_t>(col));
      return Intern(std::move(s), key);
    }
    case ExprKind::kStateRef: {
      if (leaves.num_states == 0) break;
      if (e.state_index < 0 || e.state_index >= leaves.num_states) {
        return Status::Internal("state index out of range");
      }
      Slot s;
      s.kind = Slot::Kind::kState;
      s.state = e.state_index;
      return Intern(std::move(s), "state|" + std::to_string(e.state_index));
    }
    case ExprKind::kUnaryMinus: {
      SUDAF_ASSIGN_OR_RETURN(int a, Add(*e.args[0], leaves));
      return MakeUnary(Slot::Kind::kNeg, "neg", a);
    }
    case ExprKind::kBinary: {
      if (e.bin_op == BinaryOp::kPow) {
        return BuildPow(*e.args[0], *e.args[1], leaves);
      }
      SUDAF_ASSIGN_OR_RETURN(int a, Add(*e.args[0], leaves));
      SUDAF_ASSIGN_OR_RETURN(int b, Add(*e.args[1], leaves));
      switch (e.bin_op) {
        case BinaryOp::kAdd:
          return MakeArith(Slot::Kind::kAdd, "add", a, b);
        case BinaryOp::kSub:
          return MakeArith(Slot::Kind::kSub, "sub", a, b);
        case BinaryOp::kMul:
          return MakeArith(Slot::Kind::kMul, "mul", a, b);
        case BinaryOp::kDiv:
          return MakeArith(Slot::Kind::kDiv, "div", a, b);
        default: {
          Slot s;
          s.kind = Slot::Kind::kGenericBinary;
          s.a = a;
          s.b = b;
          s.bin_op = e.bin_op;
          return Intern(std::move(s),
                        "gbin|" + std::to_string(static_cast<int>(e.bin_op)) +
                            "|" + std::to_string(a) + "|" +
                            std::to_string(b));
        }
      }
    }
    case ExprKind::kFuncCall: {
      if ((e.func_name == "pow" || e.func_name == "power") &&
          e.args.size() == 2) {
        return BuildPow(*e.args[0], *e.args[1], leaves);
      }
      if (e.args.size() == 1) {
        const std::string& f = e.func_name;
        Slot::Kind kind;
        if (f == "sqrt") {
          kind = Slot::Kind::kSqrt;
        } else if (f == "ln" || f == "log") {
          kind = Slot::Kind::kLog;
        } else if (f == "exp") {
          kind = Slot::Kind::kExp;
        } else if (f == "abs") {
          kind = Slot::Kind::kAbs;
        } else if (f == "sgn") {
          kind = Slot::Kind::kSgn;
        } else {
          kind = Slot::Kind::kGenericFunc;
        }
        if (kind != Slot::Kind::kGenericFunc) {
          SUDAF_ASSIGN_OR_RETURN(int a, Add(*e.args[0], leaves));
          return MakeUnary(kind, f.c_str(), a);
        }
      }
      // Generic scalar function: name and arity resolve to a plain function
      // pointer once at build time (the failures are value-independent),
      // so per-row evaluation is an infallible indirect call with no
      // string dispatch.
      SUDAF_ASSIGN_OR_RETURN(
          ScalarFn fn,
          ResolveScalarFunc(e.func_name, static_cast<int>(e.args.size())));
      Slot s;
      s.kind = Slot::Kind::kGenericFunc;
      s.fn = fn;
      std::string key = "gfunc|" + e.func_name;
      for (const auto& arg : e.args) {
        SUDAF_ASSIGN_OR_RETURN(int a, Add(*arg, leaves));
        s.args.push_back(a);
        key += "|" + std::to_string(a);
      }
      return Intern(std::move(s), key);
    }
    case ExprKind::kAggCall:
      break;
  }
  return Status::TypeError("aggregate in vectorized scalar context: " +
                           e.ToString());
}

void SlotProgram::MarkRoot(int slot) {
  if (evaluated_.size() < slots_.size()) evaluated_.resize(slots_.size(), 0);
  evaluated_[slot] = 1;
}

// Children precede parents, so one reverse sweep marks everything a
// marked slot reads.
void SlotProgram::Finish() {
  evaluated_.resize(slots_.size(), 0);
  for (size_t i = slots_.size(); i-- > 0;) {
    if (!evaluated_[i]) continue;
    const Slot& s = slots_[i];
    if (s.a >= 0) evaluated_[s.a] = 1;
    if (s.b >= 0) evaluated_[s.b] = 1;
    for (int arg : s.args) evaluated_[arg] = 1;
  }
  memo_.clear();
}

int SlotProgram::num_evaluated_slots() const {
  return static_cast<int>(
      std::count(evaluated_.begin(), evaluated_.end(), 1));
}

int SlotProgram::num_shared_slots() const {
  int n = 0;
  for (const Slot& s : slots_) {
    if (s.dedup_hits > 0) ++n;
  }
  return n;
}

int64_t SlotProgram::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(slots_.capacity() * sizeof(Slot) +
                                       evaluated_.capacity());
  for (const Slot& s : slots_) {
    bytes += static_cast<int64_t>(s.args.capacity() * sizeof(int));
  }
  return bytes;
}

bool SlotAliases(const Slot& s) {
  return s.kind == Slot::Kind::kState ||
         (s.kind == Slot::Kind::kColumnF64 && s.rows == nullptr &&
          s.col->num_chunks() == 1);
}

void SlotBuffers::Init(const SlotProgram& program, int64_t len) {
  const std::vector<Slot>& slots = program.slots();
  bufs.resize(slots.size());
  ptr.assign(slots.size(), nullptr);
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    if (!program.evaluated(i) || SlotAliases(s)) continue;
    // Left uninitialized: every slot writes its rows before they are read.
    bufs[i] = std::make_unique_for_overwrite<double[]>(len);
    if (s.kind == Slot::Kind::kLiteral) {
      std::fill_n(bufs[i].get(), len, s.literal);
    }
    ptr[i] = bufs[i].get();
  }
}

namespace {

// Reads tuples [lo, lo + len) of a column slot as doubles and returns
// where they are: in the column itself for a float64 identity range that
// lies in one chunk, else in `out`, filled run by run (BoundColumn::
// ForEachRun). Every morsel of a pass segmented by the catalog's log lies
// in one chunk, since every segment does. A pass that runs as one segment
// (engine mode, chunked sharing, or any pass after a destructive bump
// collapsed the log) can have a morsel straddle a chunk end; it loads
// piecewise, with the same values.
template <typename T>
const double* LoadColumn(const Slot& s, int64_t lo, int64_t len,
                         double* out) {
  const BoundColumn bound{s.col, s.rows, s.base};
  const int64_t* rows = s.rows;
  const double* alias = nullptr;
  bound.ForEachRun<T>(lo, lo + len, [&](const T* v, int64_t first,
                                        int64_t a, int64_t b) {
    if constexpr (std::is_same_v<T, double>) {
      if (rows == nullptr && a == lo && b == lo + len) {
        alias = v + (s.base + lo - first);
        return;
      }
    }
    double* o = out + (a - lo);
    if (rows == nullptr) {
      const T* in = v + (s.base + a - first);
      for (int64_t r = 0; r < b - a; ++r) o[r] = static_cast<double>(in[r]);
    } else {
      for (int64_t t = a; t < b; ++t) {
        o[t - a] = static_cast<double>(v[rows[t] - first]);
      }
    }
  });
  return alias != nullptr ? alias : out;
}

}  // namespace

void EvalVector(const SlotProgram& program, SlotBuffers* w, int64_t lo,
                int64_t len, const double* const* states) {
  const std::vector<Slot>& slots = program.slots();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!program.evaluated(i)) continue;
    const Slot& s = slots[i];
    double* out = w->bufs[i].get();
    switch (s.kind) {
      case Slot::Kind::kLiteral:
        break;  // prefilled at Init
      case Slot::Kind::kColumnF64:
        w->ptr[i] = LoadColumn<double>(s, lo, len, out);
        break;
      case Slot::Kind::kColumnI64:
        LoadColumn<int64_t>(s, lo, len, out);
        break;
      case Slot::Kind::kState:
        w->ptr[i] = states[s.state] + lo;
        break;
      case Slot::Kind::kNeg: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = -a[r];
        break;
      }
      case Slot::Kind::kAdd: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) out[r] = a[r] + b[r];
        break;
      }
      case Slot::Kind::kSub: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) out[r] = a[r] - b[r];
        break;
      }
      case Slot::Kind::kMul: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) out[r] = a[r] * b[r];
        break;
      }
      case Slot::Kind::kDiv: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) out[r] = a[r] / b[r];
        break;
      }
      case Slot::Kind::kPow: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) out[r] = std::pow(a[r], b[r]);
        break;
      }
      case Slot::Kind::kRecip: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = 1.0 / a[r];
        break;
      }
      case Slot::Kind::kSqrt: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = std::sqrt(a[r]);
        break;
      }
      case Slot::Kind::kPowHalf: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = PowHalf(a[r]);
        break;
      }
      case Slot::Kind::kLog: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = std::log(a[r]);
        break;
      }
      case Slot::Kind::kExp: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = std::exp(a[r]);
        break;
      }
      case Slot::Kind::kAbs: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) out[r] = std::fabs(a[r]);
        break;
      }
      case Slot::Kind::kSgn: {
        const double* a = w->ptr[s.a];
        for (int64_t r = 0; r < len; ++r) {
          out[r] = a[r] > 0 ? 1.0 : (a[r] < 0 ? -1.0 : 0.0);
        }
        break;
      }
      case Slot::Kind::kGenericBinary: {
        const double* a = w->ptr[s.a];
        const double* b = w->ptr[s.b];
        for (int64_t r = 0; r < len; ++r) {
          out[r] = ApplyBinaryOp(s.bin_op, a[r], b[r]);
        }
        break;
      }
      case Slot::Kind::kGenericFunc: {
        std::vector<double> args(s.args.size());
        for (int64_t r = 0; r < len; ++r) {
          for (size_t j = 0; j < s.args.size(); ++j) {
            args[j] = w->ptr[s.args[j]][r];
          }
          out[r] = s.fn(args.data());
        }
        break;
      }
    }
  }
}

}  // namespace sudaf
