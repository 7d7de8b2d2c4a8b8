#ifndef SUDAF_AGG_UDAF_H_
#define SUDAF_AGG_UDAF_H_

// Hardcoded UDAF mechanism (the IUME pattern).
//
// This is the *baseline* the paper compares against: the user supplies
// initialize / update / merge / evaluate routines whose internals are opaque
// to the engine. To model real systems faithfully (PL/pgSQL in PostgreSQL,
// `UserDefinedAggregateFunction` in Spark SQL), states and inputs are boxed
// `Value`s, and the engine drives the UDAF one row at a time through virtual
// calls. The engine can parallelize via Merge (the user must guarantee Merge
// is commutative and associative) but cannot see inside Update — which is
// exactly what prevents sharing partial results across different UDAFs.
//
// A UDAF defined as an expression gets its IUME form from DeriveUdaf, so
// each UDAF has one definition; UdafRegistry holds the implementations
// written directly against the interface (the native approximate
// quantiles, test fakes).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sudaf {

struct Expr;

class Udaf {
 public:
  virtual ~Udaf() = default;

  virtual std::string name() const = 0;
  // Number of input columns (1 for most aggregates, 2 for theta1/covar/...).
  virtual int num_args() const = 0;

  // IUME contract.
  virtual std::vector<Value> Initialize() const = 0;
  virtual void Update(std::vector<Value>* state,
                      const std::vector<Value>& args) const = 0;
  virtual void Merge(std::vector<Value>* state,
                     const std::vector<Value>& other) const = 0;
  virtual Result<Value> Evaluate(const std::vector<Value>& state) const = 0;
};

// Name -> implementation registry for UDAFs written directly against the
// IUME interface.
class UdafRegistry {
 public:
  Status Register(std::unique_ptr<Udaf> udaf);
  bool Has(const std::string& name) const;
  Result<const Udaf*> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::unique_ptr<Udaf>> udafs_;
};

// Derives the IUME form of the aggregate expression `body` (a UDAF
// definition expanded over its argument columns `params`, which name
// Update's arguments in order): one boxed state per distinct aggregate call,
// deduplicated by Expr::ToString. Initialize is AggIdentity(op) per state;
// Update interprets the statement s ⊕ f(row) per state through EvalRow over
// the boxed arguments and states; Merge is AggMerge; Evaluate is `body`
// with each call replaced by its state. Fails unless every column sits
// inside an aggregate call and is one of `params`, no aggregate nests
// another, and every function is a known scalar function.
Result<std::unique_ptr<Udaf>> DeriveUdaf(std::string name,
                                         std::vector<std::string> params,
                                         const Expr& body);

}  // namespace sudaf

#endif  // SUDAF_AGG_UDAF_H_
