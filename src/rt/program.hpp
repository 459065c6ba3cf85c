// An executable app: the reachable call graph behind an apk.
//
// The apk's dex files list *all* method signatures (tens of thousands);
// the AppProgram holds bodies only for the methods the app can actually
// reach at runtime — UI handlers, their callees, async tasks.  The gap
// between the two is what method coverage (paper §IV-C) measures.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dex/type_signature.hpp"
#include "rt/action.hpp"

namespace libspector::rt {

struct MethodInfo {
  /// Full smali type signature; must also appear in the apk's dex files.
  std::string signature;
  /// Frame name ("com.foo.Bar.baz") cached from the signature.
  std::string frameName;
  std::vector<Action> body;
};

struct AppProgram {
  std::vector<MethodInfo> methods;
  /// Run once when the app starts (Activity.onCreate analogue).
  std::optional<MethodId> onCreate;
  /// Entry points the monkey can hit with UI events.
  std::vector<MethodId> uiHandlers;
  /// Tasks the app schedules after being sent to background (analytics
  /// flushes, ad prefetch): Rosen et al. observe most background traffic
  /// lands within the first minute.
  std::vector<MethodId> backgroundTasks;

  /// Append a method; returns its id. The frame name is derived from the
  /// signature (throws std::invalid_argument on a malformed signature).
  MethodId addMethod(std::string signature, std::vector<Action> body) {
    const auto view = dex::parseSignatureView(signature);
    if (!view)
      throw std::invalid_argument("AppProgram: bad signature " + signature);
    std::string frameName;
    frameName.reserve(view->slashedClass.size() + 1 + view->methodName.size());
    for (const char c : view->slashedClass) frameName += c == '/' ? '.' : c;
    frameName += '.';
    frameName += view->methodName;
    methods.push_back(
        {std::move(signature), std::move(frameName), std::move(body)});
    return static_cast<MethodId>(methods.size() - 1);
  }

  [[nodiscard]] const MethodInfo& method(MethodId id) const {
    return methods.at(id);
  }
};

}  // namespace libspector::rt
