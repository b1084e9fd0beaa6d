#include "src/obs/trace.h"

#include "src/obs/json_writer.h"

namespace fabricsim {

const char* TraceTerminalToString(TraceTerminal terminal) {
  switch (terminal) {
    case TraceTerminal::kInFlight:
      return "in_flight";
    case TraceTerminal::kLedger:
      return "ledger";
    case TraceTerminal::kAppError:
      return "app_error";
    case TraceTerminal::kReadOnlySkipped:
      return "read_only_skipped";
    case TraceTerminal::kEarlyAborted:
      return "early_aborted";
    case TraceTerminal::kNoEndorsers:
      return "no_endorsers";
    case TraceTerminal::kEndorseTimeout:
      return "endorse_timeout";
    case TraceTerminal::kOrdererUnavailable:
      return "orderer_unavailable";
    case TraceTerminal::kAdmissionShed:
      return "admission_shed";
    case TraceTerminal::kDeadlineExpired:
      return "deadline_expired";
    case TraceTerminal::kOrdererThrottled:
      return "orderer_throttled";
    case TraceTerminal::kBreakerRejected:
      return "breaker_rejected";
  }
  return "unknown";
}

namespace {

void AppendVersion(const Version& v, std::string* out) {
  out->append("{\"block\": ");
  AppendDecimal(v.block_num, out);
  out->append(", \"tx\": ");
  AppendDecimal(v.tx_num, out);
  out->push_back('}');
}

}  // namespace

void TxTrace::AppendJson(std::string* out) const {
  out->append("{\"type\": \"tx\", \"id\": ");
  AppendDecimal(id, out);
  out->append(", \"function\": \"");
  AppendJsonEscaped(function, out);
  out->append("\", \"read_only\": ");
  out->append(read_only ? "true" : "false");
  out->append(", \"terminal\": \"");
  out->append(TraceTerminalToString(terminal));
  out->append("\", \"code\": \"");
  out->append(TxValidationCodeToString(final_code));
  out->push_back('"');
  if (channel != 0) {
    out->append(", \"channel\": ");
    AppendDecimal(channel, out);
  }
  if (block_number != 0) {
    out->append(", \"block\": ");
    AppendDecimal(block_number, out);
    out->append(", \"index\": ");
    AppendDecimal(tx_index, out);
  }
  // Retry/resubmission fields only appear when used, so fault-free
  // exports stay byte-identical to the previous schema.
  if (retries != 0) {
    out->append(", \"retries\": ");
    AppendDecimal(retries, out);
  }
  if (resubmit_of != 0) {
    out->append(", \"resubmit_of\": ");
    AppendDecimal(resubmit_of, out);
  }
  if (resubmitted_as != 0) {
    out->append(", \"resubmitted_as\": ");
    AppendDecimal(resubmitted_as, out);
  }
  out->append(", \"spans\": {\"submit\": ");
  AppendDecimal(client_submit, out);
  out->append(", \"endorsers\": [");
  for (size_t i = 0; i < endorsers.size(); ++i) {
    const EndorserSpan& e = endorsers[i];
    out->append(i == 0 ? "{\"peer\": " : ", {\"peer\": ");
    AppendDecimal(e.peer_id, out);
    out->append(", \"org\": ");
    AppendDecimal(e.org_id, out);
    out->append(", \"sent\": ");
    AppendDecimal(e.request_sent, out);
    out->append(", \"received\": ");
    AppendDecimal(e.response_received, out);
    if (e.attempt != 0) {
      out->append(", \"attempt\": ");
      AppendDecimal(e.attempt, out);
    }
    out->push_back('}');
  }
  out->push_back(']');
  if (endorsed != 0) {
    out->append(", \"endorsed\": ");
    AppendDecimal(endorsed, out);
  }
  if (orderer_enqueue != 0) {
    out->append(", \"orderer_enqueue\": ");
    AppendDecimal(orderer_enqueue, out);
  }
  if (block_cut != 0) {
    out->append(", \"block_cut\": ");
    AppendDecimal(block_cut, out);
  }
  if (committed != 0) {
    out->append(", \"committed\": ");
    AppendDecimal(committed, out);
  }
  out->push_back('}');
  if (failure != nullptr) {
    const FailureAttribution& f = *failure;
    out->append(", \"failure\": {\"class\": \"");
    out->append(TxValidationCodeToString(f.code));
    out->push_back('"');
    if (f.mvcc_class != MvccClass::kNone) {
      out->append(f.mvcc_class == MvccClass::kIntraBlock
                      ? ", \"mvcc_class\": \"intra_block\""
                      : ", \"mvcc_class\": \"inter_block\"");
    }
    if (!f.conflicting_key.empty()) {
      out->append(", \"key\": \"");
      AppendJsonEscaped(f.conflicting_key, out);
      out->append("\", \"read_version\": ");
      if (f.read_found) {
        AppendVersion(f.read_version, out);
      } else {
        out->append("null");
      }
      out->append(", \"observed_version\": ");
      if (f.observed_found) {
        AppendVersion(f.observed_version, out);
      } else {
        out->append("null");
      }
    }
    if (f.conflicting_tx != 0) {
      out->append(", \"conflicting_tx\": ");
      AppendDecimal(f.conflicting_tx, out);
    }
    if (f.block_number != 0) {
      out->append(", \"block\": ");
      AppendDecimal(f.block_number, out);
    }
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace fabricsim
