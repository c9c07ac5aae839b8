// Predicate model.
//
// A predicate is a boolean statement about one execution of the application
// ("there is a data race between M1 and M2 on X", "method M runs too slow").
// Predicates are interned in a PredicateCatalog, giving them dense ids used
// by every later stage (SD filtering, AC-DAG, intervention engine).
//
// Loop executions: the k-th dynamic execution of a method is distinguished
// through the `occurrence` field (paper Appendix A); occurrence 0 means
// "any execution".

#ifndef AID_PREDICATES_PREDICATE_H_
#define AID_PREDICATES_PREDICATE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "trace/event.h"

namespace aid {

using PredicateId = int32_t;
inline constexpr PredicateId kInvalidPredicate = -1;

enum class PredKind : uint8_t {
  kDataRace,      ///< m1 and m2 access obj concurrently, one write, no lock
  kAtomicityViolation,  ///< m2 intrudes between two of m1's accesses (obj)
  kMethodFails,   ///< m1 throws an exception
  kTooSlow,       ///< m1's duration exceeds the max successful duration
  kTooFast,       ///< m1's duration is below the min successful duration
  kWrongReturn,   ///< m1 returns a value != the consistent successful value
  kOrder,         ///< m1 starts before m2 has finished (inverted order)
  kReturnEquals,  ///< m1 and m2 return the same value (e.g. id collision)
  kCompound,      ///< conjunction of two predicates (sub1 && sub2)
  kSynthetic,     ///< abstract predicate of a synthetic ground-truth app
  kFailure,       ///< the failure-indicating predicate F
};

std::string_view PredKindName(PredKind kind);

/// An immutable predicate description. Value-semantics; hashable.
struct Predicate {
  PredKind kind = PredKind::kFailure;
  SymbolId m1 = kInvalidSymbol;
  SymbolId m2 = kInvalidSymbol;
  SymbolId obj = kInvalidSymbol;
  /// 1-based dynamic occurrence of m1; 0 = any occurrence.
  int occurrence = 0;
  /// kWrongReturn: the consistent successful return value.
  int64_t expected = 0;
  /// kCompound: member predicate ids. (kSynthetic reuses `occurrence` as its
  /// node index.)
  PredicateId sub1 = kInvalidPredicate;
  PredicateId sub2 = kInvalidPredicate;

  bool operator==(const Predicate&) const = default;
};

struct PredicateHash {
  size_t operator()(const Predicate& p) const {
    size_t h = static_cast<size_t>(p.kind);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<uint64_t>(p.m1));
    mix(static_cast<uint64_t>(p.m2));
    mix(static_cast<uint64_t>(p.obj));
    mix(static_cast<uint64_t>(p.occurrence));
    mix(static_cast<uint64_t>(p.expected));
    mix(static_cast<uint64_t>(p.sub1));
    mix(static_cast<uint64_t>(p.sub2));
    return h;
  }
};

/// When a predicate was observed within one run. Point predicates have
/// start == end; interval predicates span their relevant window.
struct PredicateObservation {
  Tick start = 0;
  Tick end = 0;
};

/// How one trial execution ended. In-process targets always complete;
/// process-isolated targets (src/proc/) additionally report subject crashes
/// and per-trial deadline kills. Non-completed trials carry an *incomplete*
/// predicate log -- the subject died before answering, so nothing was
/// observed -- and consumers that reason counterfactually about absence
/// (Definition 2 pruning) must skip them, while the failed flag stays
/// trustworthy (a subject that crashed or hung did fail).
enum class TrialOutcome : uint8_t {
  kCompleted = 0,
  kCrashed = 1,   ///< the subject process died mid-trial
  kTimedOut = 2,  ///< the trial hit its deadline and was killed
};

std::string_view TrialOutcomeName(TrialOutcome outcome);

/// The predicate values of one execution: which predicates were observed
/// (with their time windows) and whether the execution failed. This is the
/// paper's "predicate log".
struct PredicateLog {
  bool failed = false;
  TrialOutcome outcome = TrialOutcome::kCompleted;
  std::unordered_map<PredicateId, PredicateObservation> observed;

  bool Has(PredicateId id) const { return observed.count(id) > 0; }
  /// True iff the log is a complete observation of its execution (see
  /// TrialOutcome): only complete logs admit absence-based reasoning.
  bool complete() const { return outcome == TrialOutcome::kCompleted; }
};

/// Interning table: Predicate <-> dense PredicateId.
class PredicateCatalog {
 public:
  /// Interns `pred`, returning its id (stable across calls).
  PredicateId Intern(const Predicate& pred) {
    auto it = ids_.find(pred);
    if (it != ids_.end()) return it->second;
    const PredicateId id = static_cast<PredicateId>(predicates_.size());
    predicates_.push_back(pred);
    ids_.emplace(pred, id);
    return id;
  }

  /// Lookup without interning; kInvalidPredicate if absent.
  PredicateId Find(const Predicate& pred) const {
    auto it = ids_.find(pred);
    return it == ids_.end() ? kInvalidPredicate : it->second;
  }

  const Predicate& Get(PredicateId id) const {
    return predicates_[static_cast<size_t>(id)];
  }

  size_t size() const { return predicates_.size(); }

  /// Human-readable description, resolving names through the tables
  /// (either may be null, falling back to raw ids).
  std::string Describe(PredicateId id, const SymbolTable* methods,
                       const SymbolTable* objects) const;

 private:
  std::vector<Predicate> predicates_;
  std::unordered_map<Predicate, PredicateId, PredicateHash> ids_;
};

}  // namespace aid

#endif  // AID_PREDICATES_PREDICATE_H_
