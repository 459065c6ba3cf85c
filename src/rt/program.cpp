#include "rt/program.hpp"

#include <algorithm>
#include <stdexcept>

#include "dex/type_signature.hpp"
#include "util/bytes.hpp"

namespace libspector::rt {

MethodId AppProgram::addMethod(std::string_view signature,
                               std::vector<Action> body) {
  const std::size_t offset = signatures_.size();
  signatures_ += signature;
  return commit(offset, std::move(body));
}

MethodId AppProgram::addMethod(std::string_view dottedClass,
                               std::initializer_list<std::string_view> member,
                               std::vector<Action> body) {
  const std::size_t offset = signatures_.size();
  signatures_ += 'L';
  signatures_ += dottedClass;
  std::replace(signatures_.begin() + static_cast<std::ptrdiff_t>(offset) + 1,
               signatures_.end(), '.', '/');
  signatures_ += ";->";
  for (const std::string_view piece : member) signatures_ += piece;
  return commit(offset, std::move(body));
}

MethodId AppProgram::commit(std::size_t offset, std::vector<Action> body) {
  const std::string_view signature =
      std::string_view(signatures_).substr(offset);
  try {
    if (!dex::parseSignatureView(signature))
      throw std::invalid_argument("AppProgram: bad signature " +
                                  std::string(signature));
    // Offsets are u32: the arena must end inside 4 GiB.
    (void)util::checkedU32(signatures_.size(), "AppProgram: signature arena");
    methods_.push_back({static_cast<std::uint32_t>(offset),
                        static_cast<std::uint32_t>(signature.size()),
                        std::move(body)});
  } catch (...) {
    signatures_.resize(offset);
    throw;
  }
  return static_cast<MethodId>(methods_.size() - 1);
}

MethodView AppProgram::method(MethodId id) const {
  const Method& method = methods_.at(id);
  return {std::string_view(signatures_).substr(method.offset, method.size),
          method.body};
}

std::string AppProgram::frameName(MethodId id) const {
  // addMethod admitted only signatures this parse accepts.
  const auto view = *dex::parseSignatureView(method(id).signature);
  std::string name;
  name.reserve(view.slashedClass.size() + 1 + view.methodName.size());
  for (const char c : view.slashedClass) name += c == '/' ? '.' : c;
  name += '.';
  name += view.methodName;
  return name;
}

}  // namespace libspector::rt
