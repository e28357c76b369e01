#include "paths.hpp"

#include <string>

namespace perfbench {

void MessageBook::check(const MessageIds& ids,
                        const std::vector<std::uint64_t>& submitted,
                        Report& report) const {
  std::uint64_t missing = 0, duplicates = 0, not_acked = 0, failed = 0;
  std::uint64_t total = 0;
  for (std::size_t assoc = 0; assoc < submitted.size(); ++assoc) {
    total += submitted[assoc];
    for (std::uint64_t seq = 0; seq < submitted[assoc]; ++seq) {
      const std::uint64_t id = ids.id(assoc, seq + 1);
      const unsigned d = id < capacity_ ? delivered_count(id) : 0;
      const bool a = id < capacity_ && is_acked(id);
      missing += d == 0 ? 1 : 0;
      duplicates += d > 1 ? 1 : 0;
      not_acked += a ? 0 : 1;
      failed += (d != 1 || !a) ? 1 : 0;
    }
  }
  failed += corrupt + unknown + overflow;
  report.count(total, failed);
  report.line("# messages: submitted=" + std::to_string(total) +
              " missing=" + std::to_string(missing) +
              " duplicated=" + std::to_string(duplicates) +
              " not_acked=" + std::to_string(not_acked) +
              " forged_accepted=" + std::to_string(corrupt) +
              " unknown_ids=" + std::to_string(unknown) +
              " beyond_capacity=" + std::to_string(overflow) +
              " failed_status=" + std::to_string(bad_status));
  if (failed != 0) {
    report.error(std::to_string(failed) +
                 " messages not delivered exactly once with their bytes and "
                 "acked");
  }
}

void report_hashes_per_msg(const alpha::core::HashWork& work,
                           std::uint64_t delivered, Report& report) {
  const double n = static_cast<double>(delivered);
  const char* note = "all roles, Table 1 category";
  report.info("crypto.hashes_per_msg.signature", work.signature / n, "count",
              delivered, note);
  report.info("crypto.hashes_per_msg.chain_create", work.chain_create / n,
              "count", delivered, note);
  report.info("crypto.hashes_per_msg.chain_verify", work.chain_verify / n,
              "count", delivered, note);
  report.info("crypto.hashes_per_msg.ack", work.ack / n, "count", delivered,
              note);
}

}  // namespace perfbench
