#include "src/chaincode/tpcc/tpcc_rows.h"

#include <charconv>
#include <type_traits>

#include "src/chaincode/tpcc/exact_string.h"
#include "src/common/strings.h"

namespace fabricsim {
namespace tpcc {

namespace {

template <typename Row>
std::string EncodeRow(const Row& row) {
  return BuildExactString([&](auto& out) {
    out.Put("{\"docType\":\"");
    out.Put(Row::kDocType);
    out.Put("\"");
    Row::Fields(row, [&](std::string_view name, const auto& value) {
      out.Put(",\"");
      out.Put(name);
      out.Put("\":\"");
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                   std::string>) {
        out.Put(value);
      } else {
        out.Int(value);
      }
      out.Put("\"");
    });
    out.Put("}");
  });
}

/// Forward scanner over one document. The first mismatch clears ok()
/// and every later step is a no-op.
class DocScanner {
 public:
  explicit DocScanner(std::string_view doc) : rest_(doc) {}

  void Expect(std::string_view literal) {
    if (ok_ && rest_.substr(0, literal.size()) == literal) {
      rest_.remove_prefix(literal.size());
    } else {
      ok_ = false;
    }
  }

  /// A field value: everything up to the closing quote.
  template <typename T>
  void Value(T* out) {
    if (!ok_) return;
    if constexpr (std::is_same_v<T, std::string>) {
      size_t quote = rest_.find('"');
      if (quote == std::string_view::npos) {
        ok_ = false;
        return;
      }
      out->assign(rest_.data(), quote);
      rest_.remove_prefix(quote);
    } else {
      auto [end, ec] =
          std::from_chars(rest_.data(), rest_.data() + rest_.size(), *out);
      if (ec != std::errc()) {
        ok_ = false;
        return;
      }
      rest_.remove_prefix(static_cast<size_t>(end - rest_.data()));
    }
  }

  bool Finished() const { return ok_ && rest_.empty(); }

 private:
  std::string_view rest_;
  bool ok_ = true;
};

template <typename Row>
Result<Row> ParseRow(std::string_view doc) {
  Row row;
  DocScanner in(doc);
  in.Expect("{\"docType\":\"");
  in.Expect(Row::kDocType);
  in.Expect("\"");
  Row::Fields(row, [&](std::string_view name, auto& value) {
    in.Expect(",\"");
    in.Expect(name);
    in.Expect("\":\"");
    in.Value(&value);
    in.Expect("\"");
  });
  in.Expect("}");
  if (!in.Finished()) {
    return Status::Internal(
        StrFormat("tpcc: malformed %s row: %.*s", Row::kTable,
                  static_cast<int>(doc.size()), doc.data()));
  }
  return row;
}

}  // namespace

Result<WarehouseRow> WarehouseRow::Parse(std::string_view doc) {
  return ParseRow<WarehouseRow>(doc);
}
std::string WarehouseRow::Encode() const { return EncodeRow(*this); }

Result<DistrictRow> DistrictRow::Parse(std::string_view doc) {
  return ParseRow<DistrictRow>(doc);
}
std::string DistrictRow::Encode() const { return EncodeRow(*this); }

Result<CustomerRow> CustomerRow::Parse(std::string_view doc) {
  return ParseRow<CustomerRow>(doc);
}
std::string CustomerRow::Encode() const { return EncodeRow(*this); }

Result<OrderRow> OrderRow::Parse(std::string_view doc) {
  return ParseRow<OrderRow>(doc);
}
std::string OrderRow::Encode() const { return EncodeRow(*this); }

Result<NewOrderRow> NewOrderRow::Parse(std::string_view doc) {
  return ParseRow<NewOrderRow>(doc);
}
std::string NewOrderRow::Encode() const { return EncodeRow(*this); }

Result<OrderLineRow> OrderLineRow::Parse(std::string_view doc) {
  return ParseRow<OrderLineRow>(doc);
}
std::string OrderLineRow::Encode() const { return EncodeRow(*this); }

Result<StockRow> StockRow::Parse(std::string_view doc) {
  return ParseRow<StockRow>(doc);
}
std::string StockRow::Encode() const { return EncodeRow(*this); }

Result<ItemRow> ItemRow::Parse(std::string_view doc) {
  return ParseRow<ItemRow>(doc);
}
std::string ItemRow::Encode() const { return EncodeRow(*this); }

}  // namespace tpcc
}  // namespace fabricsim
