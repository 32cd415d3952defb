// Command-line driver for the bounded protocol model checker
// (src/analysis/modelcheck.hpp). scripts/ci.sh `analysis` runs it three ways:
//
//   modelcheck                          # all stock models must verify (exit 0)
//   modelcheck --model migration --plant-wedge      # must find it  (exit 1)
//   modelcheck --model migration --mutate migration:duplication:transfer
//                                       # deleted edge must trip    (exit 1)
//   modelcheck --dump-catalog-md        # docs/SPEC_CATALOG.md body to stdout
//
// Exit codes: 0 all checked properties hold; 1 a counterexample was found;
// 2 usage error; 3 state budget exhausted (exploration not exhaustive).
#include <charconv>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analysis/modelcheck.hpp"
#include "analysis/protocol_spec.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--model NAME] [--max-states N] [--plant-wedge]\n"
      "          [--plant-invariant] [--mutate MACHINE:FROM:TO]\n"
      "          [--dump-catalog-md] [--list]\n"
      "  --model NAME       check one model (default: every stock model)\n"
      "  --max-states N     distinct-state budget per model (default 1<<20)\n"
      "  --plant-wedge      plant the dropped-crash-reaction wedge\n"
      "  --plant-invariant  plant the ship-without-freeze fault\n"
      "  --mutate M:F:T     delete spec edge F->T of machine M (state names)\n"
      "  --dump-catalog-md  print the generated spec catalog and exit\n"
      "  --list             print the stock model names and exit\n",
      argv0);
  return 2;
}

// The whole of `text` as a plain non-negative decimal integer: no sign, no
// blanks, no trailing characters, no overflow.
std::optional<std::size_t> parse_count(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

int run_one(const std::string& name, const esh::analysis::ModelOptions& mopts,
            const esh::analysis::CheckOptions& copts) {
  auto model = esh::analysis::make_model(name, mopts);
  if (!model) {
    std::fprintf(stderr, "modelcheck: unknown model '%s'\n", name.c_str());
    return 2;
  }
  const esh::analysis::CheckResult r = esh::analysis::check_model(*model, copts);
  if (r.ok) {
    std::printf(
        "modelcheck: %-10s OK  %zu states, %zu transitions, %zu quiescent\n",
        name.c_str(), r.states, r.transitions, r.quiescent_states);
    return 0;
  }
  if (r.failure_kind == "budget") {
    std::fprintf(stderr, "modelcheck: %s BUDGET EXHAUSTED: %s\n", name.c_str(),
                 r.failure.c_str());
    return 3;
  }
  std::fprintf(stderr,
               "modelcheck: %s FAILED (%s)\n  %s\n  counterexample "
               "(replayable):\n%s",
               name.c_str(), r.failure_kind.c_str(), r.failure.c_str(),
               r.format_trace().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> models;
  esh::analysis::ModelOptions mopts;
  esh::analysis::CheckOptions copts;
  std::string mutate;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--model") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      models.emplace_back(v);
    } else if (arg == "--max-states") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      const std::optional<std::size_t> budget = parse_count(v);
      if (!budget) {
        std::fprintf(stderr,
                     "modelcheck: --max-states wants a non-negative integer, "
                     "got '%s'\n",
                     v);
        return usage(argv[0]);
      }
      copts.max_states = *budget;
    } else if (arg == "--plant-wedge") {
      mopts.fault = esh::analysis::PlantedFault::kWedge;
    } else if (arg == "--plant-invariant") {
      mopts.fault = esh::analysis::PlantedFault::kInvariant;
    } else if (arg == "--mutate") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      mutate = v;
    } else if (arg == "--dump-catalog-md") {
      std::fputs(esh::analysis::render_catalog_markdown().c_str(), stdout);
      return 0;
    } else if (arg == "--list") {
      for (const std::string& n : esh::analysis::model_names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    } else {
      std::fprintf(stderr, "modelcheck: unknown flag '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }

  if (!mutate.empty()) {
    const auto c1 = mutate.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : mutate.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      std::fprintf(stderr,
                   "modelcheck: --mutate wants MACHINE:FROM:TO, got '%s'\n",
                   mutate.c_str());
      return 2;
    }
    const std::string machine = mutate.substr(0, c1);
    const std::string from = mutate.substr(c1 + 1, c2 - c1 - 1);
    const std::string to = mutate.substr(c2 + 1);
    const esh::analysis::StateMachineSpec* spec =
        esh::analysis::find_spec(machine);
    if (!spec) {
      std::fprintf(stderr, "modelcheck: unknown machine '%s'\n",
                   machine.c_str());
      return 2;
    }
    try {
      mopts.spec_override = std::make_shared<esh::analysis::StateMachineSpec>(
          spec->without_edge(spec->index_of(from), spec->index_of(to)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "modelcheck: --mutate %s: %s\n", mutate.c_str(),
                   e.what());
      return 2;
    }
    std::printf("modelcheck: checking against %s without edge %s -> %s\n",
                machine.c_str(), from.c_str(), to.c_str());
  }

  if (models.empty()) models = esh::analysis::model_names();

  int worst = 0;
  for (const std::string& name : models) {
    const int rc = run_one(name, mopts, copts);
    if (rc == 2) return 2;
    if (rc > worst) worst = rc;
  }
  return worst;
}
