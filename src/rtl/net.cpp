#include "rtl/net.hpp"

#include <stdexcept>

#include "rtl/module.hpp"

namespace leo::rtl {

namespace {
std::uint64_t width_mask(unsigned width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("net width must be in [1, 64]");
  }
  return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}
}  // namespace

NetBase::NetBase(Module* owner, std::string name, unsigned width)
    : mask_(width_mask(width)), owner_(owner), name_(std::move(name)),
      width_(width) {
  if (owner_ == nullptr) {
    throw std::invalid_argument("net '" + name_ + "' requires an owner module");
  }
  owner_->register_net(this);
}

std::string NetBase::full_name() const {
  return owner_->full_name() + "." + name_;
}

RegBase::RegBase(Module* owner, std::string name, unsigned width,
                 std::uint64_t reset_value)
    : NetBase(owner, std::move(name), width),
      next_(reset_value & mask()),
      reset_(next_) {
  store(reset_);
  owner->register_reg(this);
}

}  // namespace leo::rtl
