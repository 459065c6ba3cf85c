#include "radar/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "dex/type_signature.hpp"
#include "util/strings.hpp"

namespace libspector::radar {

const std::vector<std::string>& libraryCategories() {
  static const std::vector<std::string> kCategories = {
      "Advertisement",         "App Market",      "Development Aid",
      "Development Framework", "Digital Identity", "GUI Component",
      "Game Engine",           "Map/LBS",         "Mobile Analytics",
      "Payment",               "Social Network",  "Unknown",
      "Utility"};
  return kCategories;
}

void LibraryCorpus::PrefixElection::recount() {
  int best = 0;
  winner.clear();
  for (const auto& [category, count] : votes) {
    // std::map iteration is lexicographic, so strict > keeps the
    // lexicographically smallest category on ties.
    if (count > best) {
      best = count;
      winner = category;
    }
  }
}

void LibraryCorpus::add(std::string prefix, std::string category) {
  const auto [it, inserted] = entries_.emplace(std::move(prefix), std::move(category));
  if (!inserted) return;  // re-adding keeps the first category; votes unchanged

  // The new entry votes in its own election and in the election of every
  // corpus prefix above it; its own election also needs the votes of any
  // entries already registered underneath it.
  const auto [electionIt, electionInserted] = elections_.try_emplace(it->first);
  PrefixElection& own = electionIt->second;
  own.prefix = electionIt->first;
  own.entryCategory = &it->second;
  own.votes.clear();
  for (const auto& entry : entriesUnder(it->first)) ++own.votes[entry.category];
  own.recount();

  std::string_view ancestor = it->first;
  for (std::size_t dot = ancestor.rfind('.'); dot != std::string_view::npos;
       dot = ancestor.rfind('.')) {
    ancestor = ancestor.substr(0, dot);
    const auto election = elections_.find(ancestor);
    if (election == elections_.end()) continue;  // not a corpus prefix
    ++election->second.votes[it->second];
    election->second.recount();
  }
}

const std::string* LibraryCorpus::categoryOf(std::string_view prefix) const {
  const auto it = entries_.find(prefix);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<std::string> LibraryCorpus::longestMatchingPrefix(
    std::string_view package) const {
  // Candidate prefixes of `package` are its own hierarchical ancestors;
  // walk from the full name upward and return the first corpus hit. The
  // election table keys exactly the entry set, so each candidate costs one
  // hash probe instead of an ordered-map descent.
  std::string_view candidate = package;
  while (!candidate.empty()) {
    if (elections_.find(candidate) != elections_.end())
      return std::string(candidate);
    const std::size_t dot = candidate.rfind('.');
    if (dot == std::string_view::npos) break;
    candidate = candidate.substr(0, dot);
  }
  return std::nullopt;
}

std::vector<LibraryEntry> LibraryCorpus::entriesUnder(
    std::string_view prefix) const {
  std::vector<LibraryEntry> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    const std::string& name = it->first;
    // Entries sharing the raw prefix are contiguous in the sorted map.
    if (name.size() < prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0)
      break;
    // Keep only hierarchical matches: "com.foo" covers "com.foo.x" but not
    // "com.fooz" (which still shares the raw prefix).
    if (util::isHierarchicalPrefix(prefix, name))
      out.push_back({name, it->second});
  }
  return out;
}

CategoryMatch LibraryCorpus::matchCategory(std::string_view package) const {
  // Longest-prefix walk over the precomputed elections: one hash probe per
  // hierarchical ancestor, no range scan, no re-tally, no allocation.
  std::string_view candidate = package;
  while (!candidate.empty()) {
    if (const auto it = elections_.find(candidate); it != elections_.end()) {
      const PrefixElection& election = it->second;
      return {election.winner.empty() ? kUnknownCategory
                                      : std::string_view(election.winner),
              election.prefix, &election.votes};
    }
    const std::size_t dot = candidate.rfind('.');
    if (dot == std::string_view::npos) break;
    candidate = candidate.substr(0, dot);
  }
  return {kUnknownCategory, {}, nullptr};
}

CategoryPrediction LibraryCorpus::predictCategory(
    std::string_view package) const {
  const CategoryMatch match = matchCategory(package);
  CategoryPrediction prediction;
  prediction.category = std::string(match.category);
  prediction.matchedPrefix = std::string(match.matchedPrefix);
  if (match.votes != nullptr) prediction.votes = *match.votes;
  return prediction;
}

std::vector<LibraryCorpus::ElectionView> LibraryCorpus::electionViews() const {
  // entries_ and elections_ share a keyset; iterate the ordered side so the
  // views come out sorted by prefix.
  std::vector<ElectionView> out;
  out.reserve(entries_.size());
  for (const auto& [prefix, category] : entries_) {
    const auto it = elections_.find(prefix);
    if (it == elections_.end()) continue;  // unreachable by construction
    out.push_back({it->second.prefix, it->second.winner, &it->second.votes});
  }
  return out;
}

LibraryCorpus LibraryCorpus::loadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("LibraryCorpus: cannot read " + path);
  LibraryCorpus corpus;
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    if (line.empty() || line.front() == '#') continue;
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos || comma == 0 || comma + 1 >= line.size())
      throw std::runtime_error("LibraryCorpus: malformed line " +
                               std::to_string(lineNumber) + " in " + path);
    corpus.add(line.substr(0, comma), line.substr(comma + 1));
  }
  return corpus;
}

void LibraryCorpus::saveCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("LibraryCorpus: cannot write " + path);
  out << "# prefix,category (LibRadar aggregate output)\n";
  for (const auto& [prefix, category] : entries_)
    out << prefix << ',' << category << '\n';
}

std::vector<LibraryEntry> LibraryCorpus::detect(const dex::ApkFile& apk) const {
  // Class packages as views into the apk's class names: an apk repeats
  // each package across many classes, so dedupe before matching.
  std::unordered_set<std::string_view> packages;
  for (std::size_t cls = 0; cls < apk.classCount(); ++cls) {
    const std::string_view name = apk.className(cls);
    const std::size_t lastDot = name.rfind('.');
    if (lastDot == std::string_view::npos) continue;
    packages.insert(name.substr(0, lastDot));
  }
  // Longest-prefix match each package straight off the election table (one
  // hash probe per ancestor) and collect the election nodes themselves:
  // each already carries its prefix and entry category, so no matched-set
  // of strings is rebuilt and no entries_ re-probe happens per hit.
  std::unordered_set<const PrefixElection*> matched;
  for (const std::string_view package : packages) {
    std::string_view candidate = package;
    while (!candidate.empty()) {
      if (const auto it = elections_.find(candidate); it != elections_.end()) {
        matched.insert(&it->second);
        break;
      }
      const std::size_t dot = candidate.rfind('.');
      if (dot == std::string_view::npos) break;
      candidate = candidate.substr(0, dot);
    }
  }
  std::vector<LibraryEntry> out;
  out.reserve(matched.size());
  for (const PrefixElection* election : matched)
    out.push_back({std::string(election->prefix), *election->entryCategory});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.prefix < b.prefix;
  });
  return out;
}

}  // namespace libspector::radar
