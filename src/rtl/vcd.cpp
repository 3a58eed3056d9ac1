#include "rtl/vcd.hpp"

#include <stdexcept>

namespace leo::rtl {

VcdWriter::VcdWriter(const std::string& path, const Module& top) : out_(path) {
  if (!out_) {
    throw std::runtime_error("VcdWriter: cannot open " + path);
  }
  out_ << "$date reproduction run $end\n"
       << "$version leonardo rtl kernel $end\n"
       << "$timescale 1 us $end\n";
  declare_scope(top);
  out_ << "$enddefinitions $end\n";
}

void VcdWriter::declare_scope(const Module& m) {
  out_ << "$scope module " << m.name() << " $end\n";
  for (const auto* net : m.nets()) {
    Entry e{net, make_id(entries_.size()), 0, false};
    out_ << "$var wire " << net->width() << " " << e.id << " " << net->name();
    if (net->width() > 1) {
      out_ << " [" << (net->width() - 1) << ":0]";
    }
    out_ << " $end\n";
    entries_.push_back(std::move(e));
  }
  for (const auto* child : m.children()) {
    declare_scope(*child);
  }
  out_ << "$upscope $end\n";
}

std::string VcdWriter::make_id(std::size_t index) {
  // Printable identifier characters per the spec: '!' (33) .. '~' (126).
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + index % 94));
    index /= 94;
  } while (index != 0);
  return id;
}

void VcdWriter::emit(const Entry& e, std::uint64_t value) {
  if (e.net->width() == 1) {
    out_ << (value & 1) << e.id << '\n';
    return;
  }
  out_ << 'b';
  bool leading = true;
  for (unsigned bit = e.net->width(); bit-- > 0;) {
    const bool v = (value >> bit) & 1;
    if (v) leading = false;
    if (!leading || bit == 0) out_ << (v ? '1' : '0');
  }
  out_ << ' ' << e.id << '\n';
}

void VcdWriter::sample(std::uint64_t cycle) {
  out_ << '#' << cycle << '\n';
  for (auto& e : entries_) {
    const std::uint64_t v = e.net->value_u64();
    if (!e.valid || v != e.last_value) {
      emit(e, v);
      e.last_value = v;
      e.valid = true;
    }
  }
}

}  // namespace leo::rtl
