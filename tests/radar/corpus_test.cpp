#include "radar/corpus.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace libspector::radar {
namespace {

// The corpus from Listing 2 of the paper.
LibraryCorpus listing2Corpus() {
  LibraryCorpus corpus;
  corpus.add("com.unity3d", "Game Engine");
  corpus.add("com.unity3d.ads", "Advertisement");
  corpus.add("com.unity3d.plugin.downloader", "App Market");
  corpus.add("com.unity3d.services", "Game Engine");
  return corpus;
}

TEST(CorpusTest, ExactLookup) {
  const auto corpus = listing2Corpus();
  ASSERT_NE(corpus.categoryOf("com.unity3d.ads"), nullptr);
  EXPECT_EQ(*corpus.categoryOf("com.unity3d.ads"), "Advertisement");
  EXPECT_EQ(corpus.categoryOf("com.unknown"), nullptr);
}

TEST(CorpusTest, FirstCategoryWinsOnReAdd) {
  LibraryCorpus corpus;
  corpus.add("com.foo", "Utility");
  corpus.add("com.foo", "Advertisement");
  EXPECT_EQ(*corpus.categoryOf("com.foo"), "Utility");
  EXPECT_EQ(corpus.size(), 1u);
}

TEST(CorpusTest, LongestMatchingPrefix) {
  const auto corpus = listing2Corpus();
  EXPECT_EQ(corpus.longestMatchingPrefix("com.unity3d.ads.android.cache"),
            "com.unity3d.ads");
  EXPECT_EQ(corpus.longestMatchingPrefix("com.unity3d.example"), "com.unity3d");
  EXPECT_EQ(corpus.longestMatchingPrefix("com.unity3d"), "com.unity3d");
  EXPECT_FALSE(corpus.longestMatchingPrefix("com.facebook.ads").has_value());
  // Boundary: com.unity3dx must not match com.unity3d.
  EXPECT_FALSE(corpus.longestMatchingPrefix("com.unity3dx.foo").has_value());
}

TEST(CorpusTest, Listing2ExampleVotes) {
  // [Predicted] com.unity3d.example -> {Game Engine:2, Advertisement:1,
  //  App Market:1} -> Game Engine
  const auto corpus = listing2Corpus();
  const auto prediction = corpus.predictCategory("com.unity3d.example");
  EXPECT_EQ(prediction.category, "Game Engine");
  EXPECT_EQ(prediction.matchedPrefix, "com.unity3d");
  EXPECT_EQ(prediction.votes.at("Game Engine"), 2);
  EXPECT_EQ(prediction.votes.at("Advertisement"), 1);
  EXPECT_EQ(prediction.votes.at("App Market"), 1);
}

TEST(CorpusTest, Listing2SecondExample) {
  // [Predicted] com.unity3d.ads.android.cache -> {Advertisement:1}
  //  -> Advertisement (longest prefix com.unity3d.ads, only matching lib).
  const auto corpus = listing2Corpus();
  const auto prediction = corpus.predictCategory("com.unity3d.ads.android.cache");
  EXPECT_EQ(prediction.category, "Advertisement");
  EXPECT_EQ(prediction.matchedPrefix, "com.unity3d.ads");
  EXPECT_EQ(prediction.votes.size(), 1u);
  EXPECT_EQ(prediction.votes.at("Advertisement"), 1);
}

TEST(CorpusTest, UnknownPackagePredictsUnknown) {
  const auto corpus = listing2Corpus();
  const auto prediction = corpus.predictCategory("com.firstparty.app.net");
  EXPECT_EQ(prediction.category, kUnknownCategory);
  EXPECT_TRUE(prediction.votes.empty());
  EXPECT_TRUE(prediction.matchedPrefix.empty());
}

TEST(CorpusTest, EntriesUnderExcludesRawPrefixCousins) {
  LibraryCorpus corpus;
  corpus.add("com.foo", "Utility");
  corpus.add("com.foo.bar", "Utility");
  corpus.add("com.fooz", "Advertisement");  // shares raw prefix only
  const auto under = corpus.entriesUnder("com.foo");
  ASSERT_EQ(under.size(), 2u);
  EXPECT_EQ(under[0].prefix, "com.foo");
  EXPECT_EQ(under[1].prefix, "com.foo.bar");
}

TEST(CorpusTest, TiesBreakLexicographically) {
  LibraryCorpus corpus;
  corpus.add("com.x.a", "Utility");
  corpus.add("com.x.b", "Advertisement");
  corpus.add("com.x", "Payment");
  const auto prediction = corpus.predictCategory("com.x.example");
  // 1 vote each; lexicographically smallest category wins deterministically.
  EXPECT_EQ(prediction.category, "Advertisement");
}

TEST(CorpusTest, ElectionsTrackInterleavedAdds) {
  // The per-prefix vote tallies are maintained incrementally by add();
  // every insertion order must yield the same predictions as a range scan.
  LibraryCorpus corpus;
  corpus.add("com.y.ads", "Advertisement");
  EXPECT_EQ(corpus.predictCategory("com.y.ads.sdk").category, "Advertisement");

  corpus.add("com.y", "Game Engine");  // parent after child: scans under itself
  EXPECT_EQ(corpus.predictCategory("com.y.example").matchedPrefix, "com.y");
  EXPECT_EQ(corpus.predictCategory("com.y.example").votes.at("Advertisement"), 1);
  EXPECT_EQ(corpus.predictCategory("com.y.example").votes.at("Game Engine"), 1);

  corpus.add("com.y.engine", "Game Engine");  // child after parent: votes up
  EXPECT_EQ(corpus.predictCategory("com.y.example").category, "Game Engine");
  EXPECT_EQ(corpus.predictCategory("com.y.example").votes.at("Game Engine"), 2);

  // Re-adding an existing prefix keeps the first category and adds no vote.
  corpus.add("com.y.engine", "Advertisement");
  EXPECT_EQ(corpus.predictCategory("com.y.example").votes.at("Game Engine"), 2);
  EXPECT_EQ(corpus.predictCategory("com.y.example").votes.at("Advertisement"), 1);
}

TEST(CorpusTest, DetectFindsBundledLibraries) {
  const auto corpus = listing2Corpus();
  dex::ApkFile apk;
  dex::DexFile dexFile;
  dex::ClassDef adsClass;
  adsClass.dottedName = "com.unity3d.ads.android.cache.b";
  adsClass.methods = {{"Lcom/unity3d/ads/android/cache/b;->a()V"}};
  dex::ClassDef appClass;
  appClass.dottedName = "com.myapp.Main";
  appClass.methods = {{"Lcom/myapp/Main;->onCreate()V"}};
  dexFile.classes = {adsClass, appClass};
  apk.setDex(dex::writeDexFiles({dexFile}));

  const auto detected = corpus.detect(apk);
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0].prefix, "com.unity3d.ads");
  EXPECT_EQ(detected[0].category, "Advertisement");
}

TEST(CorpusTest, MatchCategoryAgreesWithPredictCategory) {
  // matchCategory is the zero-allocation hot-path view of predictCategory;
  // the two must answer identically everywhere, including ties, unknowns
  // and near-prefix boundaries.
  const auto corpus = listing2Corpus();
  const std::vector<std::string> packages = {
      "com.unity3d.example",
      "com.unity3d.ads.android.cache",
      "com.unity3d",
      "com.unity3d.ads",
      "com.unity3dx.foo",
      "com.firstparty.app.net",
      "com",
      "",
  };
  for (const std::string& package : packages) {
    const CategoryMatch match = corpus.matchCategory(package);
    const CategoryPrediction prediction = corpus.predictCategory(package);
    EXPECT_EQ(match.category, prediction.category) << package;
    EXPECT_EQ(match.matchedPrefix, prediction.matchedPrefix) << package;
    if (match.votes != nullptr) {
      EXPECT_EQ(*match.votes, prediction.votes) << package;
    } else {
      EXPECT_TRUE(prediction.votes.empty()) << package;
    }
  }
}

TEST(CorpusTest, ElectionViewsMirrorPredictions) {
  // electionViews() exposes the precomputed per-prefix elections (the
  // AttributionProgram compilation input): one per corpus prefix, sorted,
  // each winner exactly what a query at that prefix predicts.
  const auto corpus = listing2Corpus();
  const auto views = corpus.electionViews();
  ASSERT_EQ(views.size(), corpus.size());
  for (std::size_t i = 1; i < views.size(); ++i)
    EXPECT_LT(views[i - 1].prefix, views[i].prefix);
  for (const auto& view : views) {
    const auto prediction = corpus.predictCategory(std::string(view.prefix));
    EXPECT_EQ(view.winner, prediction.category) << view.prefix;
    ASSERT_NE(view.votes, nullptr) << view.prefix;
    EXPECT_EQ(*view.votes, prediction.votes) << view.prefix;
  }
}

TEST(CorpusTest, DetectMatchesPerClassPredictions) {
  // detect() answers from the precomputed elections; it must agree with
  // predicting each class package individually, and a near-prefix class
  // ("com.unity3dx...") must not surface the "com.unity3d" entries.
  const auto corpus = listing2Corpus();
  dex::ApkFile apk;
  dex::DexFile dexFile;
  for (const std::string& name :
       {std::string("com.unity3d.ads.android.cache.b"),
        std::string("com.unity3d.services.core.a"),
        std::string("com.unity3dx.fake.Widget"),
        std::string("com.myapp.Main")}) {
    dex::ClassDef classDef;
    classDef.dottedName = name;
    dexFile.classes.push_back(classDef);
  }
  apk.setDex(dex::writeDexFiles({dexFile}));

  const auto detected = corpus.detect(apk);
  ASSERT_EQ(detected.size(), 2u);
  EXPECT_EQ(detected[0].prefix, "com.unity3d.ads");
  EXPECT_EQ(detected[0].category, "Advertisement");
  EXPECT_EQ(detected[1].prefix, "com.unity3d.services");
  EXPECT_EQ(detected[1].category, "Game Engine");
  for (const auto& entry : detected) {
    const std::string* exact = corpus.categoryOf(entry.prefix);
    ASSERT_NE(exact, nullptr) << entry.prefix;
    EXPECT_EQ(*exact, entry.category) << entry.prefix;
  }
}

TEST(CorpusTest, BuiltinCorpusSanity) {
  const auto corpus = LibraryCorpus::builtin();
  EXPECT_GT(corpus.size(), 100u);
  // Spot-check categories against Fig. 2's taxonomy.
  EXPECT_EQ(*corpus.categoryOf("com.unity3d.ads"), "Advertisement");
  EXPECT_EQ(*corpus.categoryOf("com.unity3d.player"), "Game Engine");
  EXPECT_EQ(*corpus.categoryOf("com.android.volley"), "Development Aid");
  // Every category used is from the canonical list.
  const auto& valid = libraryCategories();
  for (const auto& entry : corpus.entriesUnder("com")) {
    EXPECT_NE(std::find(valid.begin(), valid.end(), entry.category), valid.end())
        << entry.prefix << " -> " << entry.category;
  }
}

TEST(CorpusTest, BuiltinReproducesListing1Attribution) {
  const auto corpus = LibraryCorpus::builtin();
  const auto prediction = corpus.predictCategory("com.unity3d.ads.android.cache");
  EXPECT_EQ(prediction.category, "Advertisement");
}

TEST(CorpusTest, CategoriesListHasThirteenEntries) {
  EXPECT_EQ(libraryCategories().size(), 13u);  // Fig. 2 legend
}

TEST(CorpusTest, CsvRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/corpus_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".csv";
  const auto original = listing2Corpus();
  original.saveCsv(path);
  const auto loaded = LibraryCorpus::loadCsv(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(*loaded.categoryOf("com.unity3d.ads"), "Advertisement");
  EXPECT_EQ(loaded.predictCategory("com.unity3d.example").category,
            "Game Engine");
}

TEST(CorpusTest, CsvLoaderRejectsGarbage) {
  const std::string path =
      ::testing::TempDir() + "/corpus_bad_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".csv";
  {
    std::ofstream out(path);
    out << "# comment is fine\ncom.ok,Utility\nno-comma-line\n";
  }
  EXPECT_THROW((void)LibraryCorpus::loadCsv(path), std::runtime_error);
  EXPECT_THROW((void)LibraryCorpus::loadCsv("/nonexistent/corpus.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace libspector::radar
