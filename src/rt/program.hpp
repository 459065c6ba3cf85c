// An executable app: the reachable call graph behind an apk.
//
// The apk's dex files list *all* method signatures (tens of thousands);
// the AppProgram holds bodies only for the methods the app can actually
// reach at runtime — UI handlers, their callees, async tasks.  The gap
// between the two is what method coverage (paper §IV-C) measures.
//
// Storage: every method's signature lives in one arena per program, and
// each method keeps its signature's (offset, size) there and its own body
// vector. A method's frame name is not stored: frameName() derives it from
// the signature for the one reader that needs it, a stack trace.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rt/action.hpp"

namespace libspector::rt {

/// One method of an AppProgram. Both views point into the program and stay
/// valid until its next addMethod.
struct MethodView {
  /// Full smali type signature; must also appear in the apk's dex files.
  std::string_view signature;
  std::span<const Action> body;
};

class AppProgram {
 public:
  /// Run once when the app starts (Activity.onCreate analogue).
  std::optional<MethodId> onCreate;
  /// Entry points the monkey can hit with UI events.
  std::vector<MethodId> uiHandlers;
  /// Tasks the app schedules after being sent to background (analytics
  /// flushes, ad prefetch): Rosen et al. observe most background traffic
  /// lands within the first minute.
  std::vector<MethodId> backgroundTasks;

  /// Append a method; returns its id. Throws std::invalid_argument on a
  /// signature dex::parseSignatureView rejects, leaving the program as it
  /// was.
  MethodId addMethod(std::string_view signature, std::vector<Action> body);
  /// Append a method whose signature is 'L', `dottedClass` with each '.'
  /// written as '/', ";->", then `member` (name, parameters and return
  /// type, in pieces), written straight into the arena. Validated and
  /// rolled back like the other overload.
  MethodId addMethod(std::string_view dottedClass,
                     std::initializer_list<std::string_view> member,
                     std::vector<Action> body);

  [[nodiscard]] std::size_t methodCount() const noexcept {
    return methods_.size();
  }
  /// Throws std::out_of_range for an id past methodCount().
  [[nodiscard]] MethodView method(MethodId id) const;
  /// "com.foo.Bar.baz": the signature's class part with each '/' as '.',
  /// a '.', then its method name (what dex::TypeSignature::frameName()
  /// gives), derived on every call.
  [[nodiscard]] std::string frameName(MethodId id) const;

  /// Same methods, in the same order, and the same entry points.
  [[nodiscard]] bool operator==(const AppProgram&) const = default;

 private:
  struct Method {
    std::uint32_t offset = 0;  // of the signature, into signatures_
    std::uint32_t size = 0;
    std::vector<Action> body;

    [[nodiscard]] bool operator==(const Method&) const = default;
  };

  /// Validates the signature written at `offset` to the arena's end and
  /// appends its method, or rolls the arena back and throws.
  MethodId commit(std::size_t offset, std::vector<Action> body);

  std::string signatures_;
  std::vector<Method> methods_;
};

}  // namespace libspector::rt
