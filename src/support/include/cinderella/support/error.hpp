// Error-handling primitives shared across the cinderella-ipet library.
//
// The library reports unrecoverable misuse and malformed inputs with
// exceptions derived from `Error`; each analysis phase uses its own
// subclass so callers can distinguish frontend errors (bad MiniC source)
// from analysis errors (e.g. missing loop bounds) or solver errors.
#pragma once

#include <stdexcept>
#include <string>

namespace cinderella {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed MiniC source or constraint text (lexer/parser/sema).
class ParseError : public Error {
 public:
  using Error::Error;
};

/// Semantically invalid input to an analysis (e.g. recursion, unbounded
/// loop without an annotation, reference to an unknown variable).
class AnalysisError : public Error {
 public:
  using Error::Error;
};

/// Internal solver failure (numerical breakdown, iteration limit).
class SolverError : public Error {
 public:
  using Error::Error;
};

/// Runtime fault inside the VISA simulator (out-of-bounds access,
/// division by zero, step-limit exhaustion).
class SimulationError : public Error {
 public:
  using Error::Error;
};

/// Thrown by a fault-injection site (see fault_injector.hpp).  A
/// SolverError subclass so every degradation path treats an injected
/// fault exactly like the real numeric breakdown it emulates.
class InjectedFaultError : public SolverError {
 public:
  using SolverError::SolverError;
};

/// Machine-readable cause attached to a degraded or failed solve (see
/// ipet::SolveIssue).  Stable strings via errorCodeStr for reports.
enum class ErrorCode {
  None,
  DeadlineExpired,    ///< SolveControl::deadline ran out.
  Cancelled,          ///< SolveControl::cancel was set.
  NodeBudgetExhausted,///< Branch-and-bound hit its maxNodes budget.
  PivotLimit,         ///< Simplex hit kMaxPivots even after Bland retry.
  NumericOverflow,    ///< Objective exceeded 64-bit range (saturated).
  InjectedFault,      ///< A FaultInjector site fired.
  TaskLost,           ///< A per-set solve task never ran.
  MemoryCeiling,      ///< SolveControl::maxMemoryBytes would be exceeded.
  Internal,           ///< Invariant violation or unexpected exception.
};

[[nodiscard]] inline const char* errorCodeStr(ErrorCode code) {
  switch (code) {
    case ErrorCode::None:
      return "none";
    case ErrorCode::DeadlineExpired:
      return "deadline-expired";
    case ErrorCode::Cancelled:
      return "cancelled";
    case ErrorCode::NodeBudgetExhausted:
      return "node-budget-exhausted";
    case ErrorCode::PivotLimit:
      return "pivot-limit";
    case ErrorCode::NumericOverflow:
      return "numeric-overflow";
    case ErrorCode::InjectedFault:
      return "injected-fault";
    case ErrorCode::TaskLost:
      return "task-lost";
    case ErrorCode::MemoryCeiling:
      return "memory-ceiling";
    case ErrorCode::Internal:
      return "internal";
  }
  return "?";
}

namespace detail {
[[noreturn]] inline void throwRequireFailed(const char* cond, const char* file,
                                            int line) {
  throw Error(std::string("internal invariant violated: ") + cond + " at " +
              file + ":" + std::to_string(line));
}
}  // namespace detail

/// Internal invariant check that stays on in release builds.  Use for
/// conditions whose violation indicates a bug in this library rather than
/// bad user input.
#define CIN_REQUIRE(cond)                                              \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::cinderella::detail::throwRequireFailed(#cond, __FILE__, __LINE__); \
    }                                                                  \
  } while (false)

}  // namespace cinderella
