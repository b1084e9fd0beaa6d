#include "src/chaincode/stub.h"

namespace fabricsim {

ChaincodeStub::ChaincodeStub(const StateDatabase& db,
                             bool rich_queries_supported)
    : db_(db), rich_queries_supported_(rich_queries_supported) {}

std::optional<std::string> ChaincodeStub::GetState(std::string key) {
  std::optional<VersionedValue> vv = db_.Get(key);
  if (!vv.has_value()) {
    rwset_.reads.push_back(ReadItem{std::move(key), Version{}, false});
    return std::nullopt;
  }
  rwset_.reads.push_back(ReadItem{std::move(key), vv->version, true});
  return std::move(vv->value);
}

void ChaincodeStub::PutState(std::string key, std::string value) {
  rwset_.writes.push_back(WriteItem{std::move(key), std::move(value), false});
}

void ChaincodeStub::DelState(std::string key) {
  rwset_.writes.push_back(WriteItem{std::move(key), "", true});
}

std::vector<StateEntry> ChaincodeStub::GetStateByRange(std::string start_key,
                                                       std::string end_key) {
  std::vector<StateEntry> entries = db_.GetRange(start_key, end_key);
  RangeQueryInfo info;
  info.start_key = std::move(start_key);
  info.end_key = std::move(end_key);
  info.phantom_check = true;
  info.reads.reserve(entries.size());
  for (const StateEntry& e : entries) {
    info.reads.push_back(ReadItem{e.key, e.vv.version, true});
  }
  rwset_.range_queries.push_back(std::move(info));
  return entries;
}

std::vector<StateEntry> ChaincodeStub::GetStateByPartialCompositeKey(
    const std::string& object_type,
    const std::vector<std::string>& partial_attributes) {
  auto [start, end] = CompositeKeyRange(object_type, partial_attributes);
  return GetStateByRange(std::move(start), std::move(end));
}

Result<std::vector<StateEntry>> ChaincodeStub::GetQueryResult(
    const std::string& selector) {
  if (!rich_queries_supported_) {
    return Status::Unimplemented(
        "rich queries require CouchDB as the state database");
  }
  Result<RichQuerySelector> parsed = RichQuerySelector::Parse(selector);
  if (!parsed.ok()) return parsed.status();
  std::vector<StateEntry> entries = ExecuteRichQuery(db_, parsed.value());
  RangeQueryInfo info;
  info.phantom_check = false;  // Fabric does not re-execute rich queries
  info.rich_selector = selector;
  info.reads.reserve(entries.size());
  for (const StateEntry& e : entries) {
    info.reads.push_back(ReadItem{e.key, e.vv.version, true});
  }
  rwset_.range_queries.push_back(std::move(info));
  return entries;
}

}  // namespace fabricsim
