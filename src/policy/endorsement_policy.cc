#include "src/policy/endorsement_policy.h"

#include <algorithm>
#include <vector>

#include "src/common/strings.h"

namespace fabricsim {

EndorsementPolicy EndorsementPolicy::SignedBy(OrgId org) {
  EndorsementPolicy p;
  p.kind_ = Kind::kSignedBy;
  p.org_ = org;
  return p;
}

EndorsementPolicy EndorsementPolicy::NOutOf(
    int n, std::vector<EndorsementPolicy> subs) {
  EndorsementPolicy p;
  p.kind_ = Kind::kNOutOf;
  p.n_ = n;
  p.subs_ = std::move(subs);
  return p;
}

template <typename HasSigned>
bool EndorsementPolicy::EvaluateWith(const HasSigned& has_signed) const {
  if (kind_ == Kind::kSignedBy) return has_signed(org_);
  int satisfied = 0;
  for (const EndorsementPolicy& sub : subs_) {
    if (sub.EvaluateWith(has_signed)) ++satisfied;
    if (satisfied >= n_) return true;
  }
  return satisfied >= n_;
}

bool EndorsementPolicy::Evaluate(const std::set<OrgId>& signer_orgs) const {
  return EvaluateWith([&](OrgId org) { return signer_orgs.count(org) > 0; });
}

bool EndorsementPolicy::EvaluateOrgMask(uint64_t signer_mask) const {
  return EvaluateWith([signer_mask](OrgId org) {
    return org >= 0 && org < 64 && ((signer_mask >> org) & 1) != 0;
  });
}

std::set<OrgId> EndorsementPolicy::MentionedOrgs() const {
  std::set<OrgId> out;
  CollectOrgs(&out);
  return out;
}

void EndorsementPolicy::CollectOrgs(std::set<OrgId>* out) const {
  if (kind_ == Kind::kSignedBy) {
    out->insert(org_);
    return;
  }
  for (const EndorsementPolicy& sub : subs_) sub.CollectOrgs(out);
}

int EndorsementPolicy::SubPolicyCount() const {
  return CountSubPolicies(/*is_root=*/true);
}

int EndorsementPolicy::CountSubPolicies(bool is_root) const {
  int count = 0;
  if (kind_ == Kind::kNOutOf && !is_root) count = 1;
  for (const EndorsementPolicy& sub : subs_) {
    count += sub.CountSubPolicies(/*is_root=*/false);
  }
  return count;
}

int EndorsementPolicy::MinSignatures() const {
  if (kind_ == Kind::kSignedBy) return 1;
  // Take the n cheapest sub-policies.
  std::vector<int> costs;
  costs.reserve(subs_.size());
  for (const EndorsementPolicy& sub : subs_) {
    costs.push_back(sub.MinSignatures());
  }
  std::sort(costs.begin(), costs.end());
  int total = 0;
  int take = std::min<int>(n_, static_cast<int>(costs.size()));
  for (int i = 0; i < take; ++i) total += costs[i];
  return total;
}

std::string EndorsementPolicy::ToString() const {
  if (kind_ == Kind::kSignedBy) {
    return StrFormat("Org%d", org_);
  }
  std::string out = StrFormat("%d-of[", n_);
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (i > 0) out += ",";
    out += subs_[i].ToString();
  }
  out += "]";
  return out;
}

SimTime EndorsementPolicy::VsccParallelCost(size_t endorsement_count) const {
  // Per-signature ECDSA verification ~0.6 ms, on the worker pool.
  constexpr SimTime kBase = 200;          // 0.2 ms fixed
  constexpr SimTime kPerSignature = 600;  // 0.6 ms
  return kBase + static_cast<SimTime>(endorsement_count) * kPerSignature;
}

SimTime EndorsementPolicy::VsccSerialCost() const {
  // Each sub-policy opens another principal search space in the VSCC
  // evaluator; this parsing/search work is serial per transaction.
  constexpr SimTime kPerSubPolicy = 1000;  // 1 ms
  return static_cast<SimTime>(SubPolicyCount()) * kPerSubPolicy;
}

SimTime EndorsementPolicy::VsccCost(size_t endorsement_count) const {
  return VsccParallelCost(endorsement_count) + VsccSerialCost();
}

std::set<OrgId> EndorsementPolicy::ChooseSatisfyingOrgs(
    uint64_t rotation) const {
  std::vector<OrgId> orgs;
  AppendSatisfyingOrgs(rotation, &orgs);
  return std::set<OrgId>(orgs.begin(), orgs.end());
}

void EndorsementPolicy::SatisfyingOrgs(uint64_t rotation,
                                       std::vector<OrgId>* out) const {
  out->clear();
  AppendSatisfyingOrgs(rotation, out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void EndorsementPolicy::AppendSatisfyingOrgs(uint64_t rotation,
                                             std::vector<OrgId>* out) const {
  if (kind_ == Kind::kSignedBy) {
    out->push_back(org_);
    return;
  }
  // Order sub-policies by signature cost, rotating among ties so that
  // repeated calls spread over equivalent choices. The rotated index
  // is a permutation, so no two keys tie and the order is total.
  const size_t n = subs_.size();
  std::vector<std::pair<int, size_t>> order(n);  // (cost, index)
  for (size_t i = 0; i < n; ++i) order[i] = {subs_[i].MinSignatures(), i};
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return (a.second + rotation) % n < (b.second + rotation) % n;
  });
  int needed = n_;
  for (const auto& [cost, idx] : order) {
    if (needed == 0) break;
    subs_[idx].AppendSatisfyingOrgs(rotation, out);
    --needed;
  }
}

}  // namespace fabricsim
