#include "fuzz/harness.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

namespace syncpat::fuzz {
namespace {

Oracle bind_oracle(const HarnessOptions& opt) {
  if (opt.injected_oracle) return opt.injected_oracle;
  const OracleOptions oracles = opt.oracles;
  return [oracles](const FuzzCase& c) { return run_oracles(c, oracles); };
}

std::string write_repro(const HarnessOptions& opt, const FuzzCase& c) {
  // The seed is in the name so runs sharing a repro directory never
  // overwrite each other's files.
  const std::string path = opt.repro_dir + "/fuzz-repro-" +
                           std::to_string(opt.seed) + "-" +
                           std::to_string(c.index) + ".case";
  std::ofstream out(path, std::ios::binary);
  out << c.to_text();
  if (!out) return "";  // reported as unwritable; the failure still counts
  return path;
}

}  // namespace

HarnessReport run_fuzz(const HarnessOptions& opt, std::ostream& out) {
  const Oracle oracle = bind_oracle(opt);
  HarnessReport report;

  out << "syncpat_fuzz: seed " << opt.seed << ", " << opt.cases
      << " cases, oracles [invariants=" << opt.oracles.check_invariants
      << " fast-forward=" << opt.oracles.check_fast_forward
      << " jobs=" << opt.oracles.check_jobs
      << " trace-roundtrip=" << opt.oracles.check_trace_roundtrip
      << " conservation=" << opt.oracles.check_conservation << "]\n";

  for (std::uint64_t i = 0; i < opt.cases; ++i) {
    const FuzzCase c = FuzzCase::generate(opt.seed, i);
    OracleVerdict verdict = oracle(c);
    ++report.cases_run;
    if (verdict.ok()) {
      if (opt.verbose) out << "ok    " << c.describe() << "\n";
      continue;
    }

    out << "FAIL  " << c.describe() << "\n";
    out << "      oracles failed: " << verdict.failed_oracles() << "\n";

    FailureRecord record;
    record.original = c;
    record.minimal = c;
    if (opt.shrink_failures) {
      const ShrinkResult shrunk = shrink(c, oracle);
      record.minimal = shrunk.minimal;
      verdict = oracle(shrunk.minimal);
      out << "      shrunk (" << shrunk.accepted << " reductions, "
          << shrunk.oracle_runs << " oracle runs) -> "
          << shrunk.minimal.describe() << "\n";
    }
    record.verdict = verdict;
    for (const std::string& f : record.verdict.failures) {
      out << "      " << f << "\n";
    }
    record.repro_path = write_repro(opt, record.minimal);
    if (record.repro_path.empty()) {
      out << "      (could not write repro file under " << opt.repro_dir
          << ")\n";
    } else {
      out << "      repro: " << record.repro_path
          << "  (replay: syncpat_fuzz --repro <file>)\n";
    }
    report.failures.push_back(std::move(record));
  }

  out << "syncpat_fuzz: " << report.cases_run << " cases, "
      << report.failures.size() << " failure(s)\n";
  return report;
}

int replay_repro(const std::string& path, const HarnessOptions& opt,
                 std::ostream& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("cannot open repro file " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  const FuzzCase c = FuzzCase::from_text(text.str());

  out << "replaying " << c.describe() << "\n";
  const OracleVerdict verdict = bind_oracle(opt)(c);
  if (verdict.ok()) {
    out << "verdict: PASS (all oracles clean)\n";
    return 0;
  }
  out << "verdict: FAIL (" << verdict.failed_oracles() << ")\n";
  for (const std::string& f : verdict.failures) out << "  " << f << "\n";
  return 1;
}

}  // namespace syncpat::fuzz
