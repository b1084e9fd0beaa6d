#ifndef FABRICSIM_CHAINCODE_TPCC_EXACT_STRING_H_
#define FABRICSIM_CHAINCODE_TPCC_EXACT_STRING_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace fabricsim {
namespace tpcc {

/// Builds TPC-C keys and rows in one allocation of exactly the final
/// size. `write(sink)` emits the pieces in order through the sink
/// interface below; it runs twice, once to size the string and once to
/// fill it. The result's capacity equals its size, so sealing the
/// rw-set (which trims every key and value) never reallocates it.
///
/// Sink interface:
///   Put(std::string_view)            raw bytes
///   Int(long long)                   decimal, as std::to_string prints it
///   Padded(uint64_t value, int width)  zero-padded to `width` digits;
///                                    wider values are written in full
namespace exact_string_internal {

inline int DigitCount(uint64_t value) {
  int digits = 1;
  while (value >= 10) {
    value /= 10;
    ++digits;
  }
  return digits;
}

class SizeSink {
 public:
  void Put(std::string_view s) { size_ += s.size(); }
  void Int(long long value) {
    uint64_t magnitude = static_cast<uint64_t>(value);
    if (value < 0) {
      magnitude = 0 - magnitude;
      ++size_;  // '-'
    }
    size_ += static_cast<size_t>(DigitCount(magnitude));
  }
  void Padded(uint64_t value, int width) {
    int digits = DigitCount(value);
    size_ += static_cast<size_t>(digits > width ? digits : width);
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class CharSink {
 public:
  explicit CharSink(char* out) : out_(out) {}
  void Put(std::string_view s) {
    std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }
  void Int(long long value) {
    out_ = std::to_chars(out_, out_ + 20, value).ptr;
  }
  void Padded(uint64_t value, int width) {
    for (int digits = DigitCount(value); digits < width; ++digits) {
      *out_++ = '0';
    }
    out_ = std::to_chars(out_, out_ + 20, value).ptr;
  }

 private:
  char* out_;
};

}  // namespace exact_string_internal

template <typename Write>
std::string BuildExactString(const Write& write) {
  exact_string_internal::SizeSink size;
  write(size);
  std::string out(size.size(), '\0');
  exact_string_internal::CharSink sink(out.data());
  write(sink);
  return out;
}

}  // namespace tpcc
}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_TPCC_EXACT_STRING_H_
