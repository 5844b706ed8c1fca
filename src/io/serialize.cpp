#include "io/serialize.h"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "io/jsonl.h"
#include "util/check.h"

namespace mmr {

namespace {

constexpr const char* kSystemHeader = "mmrepl-system v1";
constexpr const char* kAssignmentHeader = "mmrepl-assignment v1";

void write_capacity(std::ostream& os, double capacity) {
  if (capacity == kUnlimited) {
    os << "inf";
  } else {
    os << capacity;
  }
}

/// Line-oriented reader that tracks line numbers for error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Returns the next non-empty line; throws at EOF.
  std::string next(const char* expectation) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      if (!line.empty()) return line;
    }
    MMR_CHECK_MSG(false, "unexpected end of input at line " << line_number_
                                                            << ": expected "
                                                            << expectation);
    return {};
  }

  /// Parses the next line with the given leading keyword; returns the rest
  /// as a token stream.
  std::istringstream expect(const std::string& keyword) {
    const std::string line = next(keyword.c_str());
    std::istringstream ss(line);
    std::string word;
    ss >> word;
    MMR_CHECK_MSG(word == keyword, "line " << line_number_ << ": expected '"
                                           << keyword << "', got '" << word
                                           << "'");
    return ss;
  }

  int line_number() const { return line_number_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

double read_capacity(std::istringstream& ss, const LineReader& reader) {
  std::string token;
  ss >> token;
  MMR_CHECK_MSG(!token.empty(),
                "line " << reader.line_number() << ": missing capacity");
  if (token == "inf") return kUnlimited;
  std::istringstream conv(token);
  double value = 0;
  conv >> value;
  MMR_CHECK_MSG(!conv.fail(), "line " << reader.line_number()
                                      << ": bad capacity '" << token << "'");
  return value;
}

template <typename T>
T read_value(std::istringstream& ss, const LineReader& reader,
             const char* what) {
  T value{};
  ss >> value;
  MMR_CHECK_MSG(!ss.fail(),
                "line " << reader.line_number() << ": bad " << what);
  return value;
}

}  // namespace

void save_system(const SystemModel& sys, std::ostream& os) {
  MMR_CHECK_MSG(sys.finalized(), "save_system requires a finalized model");
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kSystemHeader << '\n';
  os << "repository ";
  write_capacity(os, sys.repository().proc_capacity);
  os << '\n';
  os << "servers " << sys.num_servers() << '\n';
  for (ServerId i = 0; i < sys.num_servers(); ++i) {
    const Server& s = sys.server(i);
    os << "server ";
    write_capacity(os, s.proc_capacity);
    os << ' ' << s.storage_capacity << ' ' << s.ovhd_local << ' '
       << s.ovhd_repo << ' ' << s.local_rate << ' ' << s.repo_rate << '\n';
  }
  os << "objects " << sys.num_objects() << '\n';
  for (ObjectId k = 0; k < sys.num_objects(); ++k) {
    os << "object " << sys.object_bytes(k) << '\n';
  }
  os << "pages " << sys.num_pages() << '\n';
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    os << "page " << p.host << ' ' << p.html_bytes << ' ' << p.frequency
       << ' ' << p.optional_scale << ' ' << p.compulsory.size() << ' '
       << p.optional.size() << '\n';
    for (ObjectId k : p.compulsory) os << "c " << k << '\n';
    for (const OptionalRef& ref : p.optional) {
      os << "o " << ref.object << ' ' << ref.probability << '\n';
    }
  }
  MMR_CHECK_MSG(os.good(), "stream failure while writing system");
}

SystemModel load_system(std::istream& is) {
  LineReader reader(is);
  const std::string header = reader.next("header");
  MMR_CHECK_MSG(header == kSystemHeader,
                "unrecognized header '" << header << "'");

  SystemModel sys;
  {
    auto ss = reader.expect("repository");
    sys.set_repository({read_capacity(ss, reader)});
  }
  {
    auto ss = reader.expect("servers");
    const auto count = read_value<std::size_t>(ss, reader, "server count");
    for (std::size_t i = 0; i < count; ++i) {
      auto line = reader.expect("server");
      Server s;
      s.proc_capacity = read_capacity(line, reader);
      s.storage_capacity =
          read_value<std::uint64_t>(line, reader, "storage");
      s.ovhd_local = read_value<double>(line, reader, "ovhd_local");
      s.ovhd_repo = read_value<double>(line, reader, "ovhd_repo");
      s.local_rate = read_value<double>(line, reader, "local_rate");
      s.repo_rate = read_value<double>(line, reader, "repo_rate");
      sys.add_server(s);
    }
  }
  {
    auto ss = reader.expect("objects");
    const auto count = read_value<std::size_t>(ss, reader, "object count");
    for (std::size_t k = 0; k < count; ++k) {
      auto line = reader.expect("object");
      sys.add_object({read_value<std::uint64_t>(line, reader, "bytes")});
    }
  }
  {
    auto ss = reader.expect("pages");
    const auto count = read_value<std::size_t>(ss, reader, "page count");
    for (std::size_t j = 0; j < count; ++j) {
      auto line = reader.expect("page");
      Page p;
      p.host = read_value<ServerId>(line, reader, "host");
      p.html_bytes = read_value<std::uint64_t>(line, reader, "html bytes");
      p.frequency = read_value<double>(line, reader, "frequency");
      p.optional_scale =
          read_value<double>(line, reader, "optional scale");
      const auto n_comp =
          read_value<std::size_t>(line, reader, "compulsory count");
      const auto n_opt =
          read_value<std::size_t>(line, reader, "optional count");
      p.compulsory.reserve(n_comp);
      for (std::size_t x = 0; x < n_comp; ++x) {
        auto c = reader.expect("c");
        p.compulsory.push_back(read_value<ObjectId>(c, reader, "object id"));
      }
      p.optional.reserve(n_opt);
      for (std::size_t x = 0; x < n_opt; ++x) {
        auto o = reader.expect("o");
        OptionalRef ref;
        ref.object = read_value<ObjectId>(o, reader, "object id");
        ref.probability = read_value<double>(o, reader, "probability");
        p.optional.push_back(ref);
      }
      sys.add_page(std::move(p));
    }
  }
  sys.finalize();
  return sys;
}

void save_assignment(const Assignment& asg, std::ostream& os) {
  const SystemModel& sys = asg.system();
  os << kAssignmentHeader << '\n';
  os << "pages " << sys.num_pages() << '\n';
  for (PageId j = 0; j < sys.num_pages(); ++j) {
    const Page& p = sys.page(j);
    os << "page " << j << ' ';
    if (p.compulsory.empty()) {
      os << '-';
    } else {
      for (std::uint32_t idx = 0; idx < p.compulsory.size(); ++idx) {
        os << (asg.comp_local(j, idx) ? '1' : '0');
      }
    }
    os << ' ';
    if (p.optional.empty()) {
      os << '-';
    } else {
      for (std::uint32_t idx = 0; idx < p.optional.size(); ++idx) {
        os << (asg.opt_local(j, idx) ? '1' : '0');
      }
    }
    os << '\n';
  }
  MMR_CHECK_MSG(os.good(), "stream failure while writing assignment");
}

Assignment load_assignment(const SystemModel& sys, std::istream& is) {
  LineReader reader(is);
  const std::string header = reader.next("header");
  MMR_CHECK_MSG(header == kAssignmentHeader,
                "unrecognized header '" << header << "'");
  auto ss = reader.expect("pages");
  const auto count = read_value<std::size_t>(ss, reader, "page count");
  MMR_CHECK_MSG(count == sys.num_pages(),
                "assignment has " << count << " pages but the system has "
                                  << sys.num_pages());

  Assignment asg(sys);
  for (std::size_t x = 0; x < count; ++x) {
    auto line = reader.expect("page");
    const auto j = read_value<PageId>(line, reader, "page id");
    MMR_CHECK_MSG(j < sys.num_pages(),
                  "line " << reader.line_number() << ": bad page id " << j);
    const Page& p = sys.page(j);
    std::string comp_bits, opt_bits;
    line >> comp_bits >> opt_bits;
    MMR_CHECK_MSG(!line.fail(),
                  "line " << reader.line_number() << ": missing bit strings");

    auto apply = [&](const std::string& bits, std::size_t expected,
                     auto setter) {
      if (bits == "-") {
        MMR_CHECK_MSG(expected == 0, "line " << reader.line_number()
                                             << ": expected " << expected
                                             << " bits, got none");
        return;
      }
      MMR_CHECK_MSG(bits.size() == expected,
                    "line " << reader.line_number() << ": expected "
                            << expected << " bits, got " << bits.size());
      for (std::size_t idx = 0; idx < bits.size(); ++idx) {
        MMR_CHECK_MSG(bits[idx] == '0' || bits[idx] == '1',
                      "line " << reader.line_number() << ": bad bit '"
                              << bits[idx] << "'");
        setter(static_cast<std::uint32_t>(idx), bits[idx] == '1');
      }
    };
    apply(comp_bits, p.compulsory.size(),
          [&](std::uint32_t idx, bool v) { asg.set_comp_local(j, idx, v); });
    apply(opt_bits, p.optional.size(),
          [&](std::uint32_t idx, bool v) { asg.set_opt_local(j, idx, v); });
  }
  return asg;
}

void save_system_file(const SystemModel& sys, const std::string& path) {
  write_artifact_file(path, [&](std::ostream& os) { save_system(sys, os); });
}

SystemModel load_system_file(const std::string& path) {
  std::istringstream is(read_artifact_file(path));
  return load_system(is);
}

void save_assignment_file(const Assignment& asg, const std::string& path) {
  write_artifact_file(path,
                      [&](std::ostream& os) { save_assignment(asg, os); });
}

Assignment load_assignment_file(const SystemModel& sys,
                                const std::string& path) {
  std::istringstream is(read_artifact_file(path));
  return load_assignment(sys, is);
}

}  // namespace mmr
