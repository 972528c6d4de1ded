#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dbr {

/// Thrown when a caller violates a documented precondition of a public API.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant fails; indicates a library bug.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Checks a documented precondition of a public entry point.
/// Throws dbr::precondition_error carrying exactly `message` on failure:
/// the text is the caller's to see (the service sends it to remote clients
/// in kBadRequest replies), so it names the violated condition and never
/// the source location of the check. A passing check allocates nothing: the
/// exception text is built only on failure.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] {
    throw precondition_error(std::string(message));
  }
}

/// Checks an internal invariant. Failure means the library itself is wrong,
/// so the error type is distinct from precondition violations and its text
/// starts with the source location of the failed check. Like require, a
/// passing check allocates nothing.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    throw invariant_error(std::string(loc.file_name()) + ":" +
                          std::to_string(loc.line()) + ": " +
                          std::string(message));
  }
}

}  // namespace dbr
