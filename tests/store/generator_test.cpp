#include "store/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "dex/disassembler.hpp"
#include "dex/type_signature.hpp"
#include "radar/ant.hpp"
#include "util/sha256.hpp"

namespace libspector::store {
namespace {

StoreConfig smallConfig(std::size_t apps = 60, std::uint64_t seed = 7) {
  StoreConfig config;
  config.appCount = apps;
  config.seed = seed;
  config.methodScale = 0.05;  // keep test dex files small
  return config;
}

TEST(GeneratorTest, WorldIsDeterministic) {
  const AppStoreGenerator a(smallConfig());
  const AppStoreGenerator b(smallConfig());
  ASSERT_EQ(a.appCount(), b.appCount());
  EXPECT_EQ(a.farm().endpointCount(), b.farm().endpointCount());
  for (std::size_t i = 0; i < a.appCount(); i += 7) {
    const auto jobA = a.makeJob(i);
    const auto jobB = b.makeJob(i);
    EXPECT_EQ(util::toHex(jobA.apk.sha256()), util::toHex(jobB.apk.sha256()));
  }
}

TEST(GeneratorTest, MakeJobIsIdempotent) {
  const AppStoreGenerator generator(smallConfig());
  const auto first = generator.makeJob(3);
  const auto second = generator.makeJob(3);
  EXPECT_EQ(first.apk, second.apk);
  EXPECT_EQ(first.program, second.program);
}

TEST(GeneratorTest, DifferentSeedsDifferentWorlds) {
  const AppStoreGenerator a(smallConfig(60, 1));
  const AppStoreGenerator b(smallConfig(60, 2));
  EXPECT_NE(util::toHex(a.makeJob(0).apk.sha256()),
            util::toHex(b.makeJob(0).apk.sha256()));
}

TEST(GeneratorTest, ProgramMethodsAreInDex) {
  const AppStoreGenerator generator(smallConfig());
  const auto job = generator.makeJob(0);
  const auto dexSignatures = dex::allMethodSignatures(job.apk);
  const std::unordered_set<std::string_view> dexSet(dexSignatures.begin(),
                                                    dexSignatures.end());
  for (rt::MethodId id = 0; id < job.program.methodCount(); ++id) {
    const std::string_view signature = job.program.method(id).signature;
    EXPECT_TRUE(dexSet.contains(signature)) << signature;
  }
}

TEST(GeneratorTest, ProgramFrameNamesAreTheParsedSignatures) {
  // AppProgram::frameName derives each frame name from a view of the
  // signature; it must be the name TypeSignature spells out, for every
  // class shape the generator writes (scenario classes included).
  StoreConfig config = smallConfig(12);
  config.scenarios = {.keepAliveReuse = true,
                      .adversarialApps = true,
                      .backgroundSync = true};
  for (const StoreConfig& world : {smallConfig(12), config}) {
    const AppStoreGenerator generator(world);
    for (std::size_t i = 0; i < generator.appCount(); ++i) {
      const auto job = generator.makeJob(i);
      for (rt::MethodId id = 0; id < job.program.methodCount(); ++id) {
        const std::string_view signature = job.program.method(id).signature;
        const auto parsed = dex::TypeSignature::parse(signature);
        ASSERT_TRUE(parsed.has_value()) << signature;
        EXPECT_EQ(job.program.frameName(id), parsed->frameName()) << signature;
      }
    }
  }
}

TEST(GeneratorTest, AddMethodRejectsMalformedSignatures) {
  // The malformed list of FrameTableDifferentialTest: addMethod accepts
  // exactly what TypeSignature::parse accepts.
  for (const char* bad :
       {"", "L", "Lcom/Foo;", "Lcom/Foo;->", "Lcom/Foo;->m", "Lcom/Foo;->m(",
        "Lcom/Foo;->m()", "Lcom/Foo;->m()Q", "Lcom/Foo;->m(Q)V",
        "Lcom/Foo;->m(Ljava/lang/String)V", "Lcom/Foo;->m()VV",
        "com/Foo;->m()V", "L;->m()V", "Lcom/Foo;->()V", "Lcom/Foo;->m([)V"}) {
    ASSERT_FALSE(dex::TypeSignature::parse(bad).has_value()) << bad;
    rt::AppProgram program;
    EXPECT_THROW(program.addMethod(bad, {}), std::invalid_argument) << bad;
    EXPECT_EQ(program.methodCount(), 0u) << bad;
  }
  rt::AppProgram program;
  EXPECT_EQ(program.addMethod("Lcom/Foo;->ok(I)V", {}), 0u);
  EXPECT_EQ(program.frameName(0), "com.Foo.ok");
}

TEST(GeneratorTest, PlannedDomainsResolveInFarm) {
  const AppStoreGenerator generator(smallConfig());
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    for (const auto& source : generator.plan(i).sources) {
      for (const auto& domain : source.domains) {
        EXPECT_TRUE(generator.farm().ipOf(domain).has_value()) << domain;
        EXPECT_NE(generator.domainTruth(domain), "");
      }
    }
  }
}

TEST(GeneratorTest, DomainTruthIsGenericCategory) {
  const AppStoreGenerator generator(smallConfig());
  for (const auto& domain : generator.farm().allDomains()) {
    const std::string truth = generator.domainTruth(domain);
    EXPECT_FALSE(truth.empty());
  }
  EXPECT_EQ(generator.domainTruth("not.a.real.domain"), "unknown");
}

TEST(GeneratorTest, ArchetypeInvariants) {
  const AppStoreGenerator generator(smallConfig(300));
  const auto& profiles = libraryProfiles();
  std::size_t antFree = 0, antOnly = 0;
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const AppPlan& plan = generator.plan(i);
    const auto isAnt = [&](int profileIndex) {
      const auto& category =
          profiles[static_cast<std::size_t>(profileIndex)].radarCategory;
      return category == "Advertisement" || category == "Mobile Analytics";
    };
    if (plan.archetype == AppPlan::Archetype::AntFree) {
      ++antFree;
      for (const int p : plan.bundledProfiles) EXPECT_FALSE(isAnt(p));
    }
    if (plan.archetype == AppPlan::Archetype::AntOnly) {
      ++antOnly;
      bool hasAnt = false;
      for (const auto& source : plan.sources) {
        ASSERT_GE(source.profileIndex, 0);  // no first-party sources
        EXPECT_TRUE(isAnt(source.profileIndex));
        hasAnt = true;
      }
      EXPECT_TRUE(hasAnt);
      EXPECT_FALSE(plan.systemAdTraffic);
    }
  }
  // Roughly 10% / 34% of the population.
  EXPECT_NEAR(static_cast<double>(antFree) / 300.0, 0.10, 0.06);
  EXPECT_NEAR(static_cast<double>(antOnly) / 300.0, 0.34, 0.09);
}

TEST(GeneratorTest, AppCategoriesAreValid) {
  const AppStoreGenerator generator(smallConfig(200));
  const auto& valid = appCategories();
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const auto& category = generator.plan(i).appCategory;
    EXPECT_NE(std::find(valid.begin(), valid.end(), category), valid.end());
  }
}

TEST(GeneratorTest, ChosenVersionsSatisfySelectionRules) {
  const AppStoreGenerator generator(smallConfig(200));
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const AppPlan& plan = generator.plan(i);
    const auto chosen = selectApkVersion(plan.versions);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(*chosen, plan.chosenVersion);
    EXPECT_TRUE(plan.versions[plan.chosenVersion].isX86Compatible());
  }
}

TEST(GeneratorTest, RepositoryContainsArmOnlyEntriesTheFilterRejects) {
  auto config = smallConfig(100);
  config.armOnlyFraction = 0.10;
  const AppStoreGenerator generator(config);
  const auto& repository = generator.repository();
  EXPECT_EQ(repository.size(), 110u);
  const auto selected = selectCorpus(repository);
  EXPECT_EQ(selected.size(), 100u);  // exactly the planned corpus survives
}

TEST(GeneratorTest, MethodCountsTrackScale) {
  auto small = smallConfig(30);
  small.methodScale = 0.05;
  auto large = smallConfig(30);
  large.methodScale = 0.20;
  const AppStoreGenerator smallGen(small);
  const AppStoreGenerator largeGen(large);
  std::size_t smallMethods = 0, largeMethods = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    smallMethods += smallGen.makeJob(i).apk.totalMethodCount();
    largeMethods += largeGen.makeJob(i).apk.totalMethodCount();
  }
  EXPECT_GT(largeMethods, 2 * smallMethods);
}

TEST(GeneratorTest, MultiDexSplitRespectsMethodLimit) {
  StoreConfig config;
  config.appCount = 120;
  config.seed = 99;
  config.methodScale = 2.0;  // push some apps past 65,536 methods
  const AppStoreGenerator generator(config);
  bool sawMultiDex = false;
  for (std::size_t i = 0; i < generator.appCount() && !sawMultiDex; i += 10) {
    const auto job = generator.makeJob(i);
    for (std::size_t d = 0; d < job.apk.dexCount(); ++d) {
      std::size_t methods = 0;
      for (const std::size_t cls : job.apk.dexClasses(d))
        methods += job.apk.classMethods(cls).size();
      EXPECT_LE(methods, 65536u);
    }
    if (job.apk.dexCount() > 1) sawMultiDex = true;
  }
  EXPECT_TRUE(sawMultiDex);
}

TEST(GeneratorTest, UiHandlersExistAndAreValid) {
  const AppStoreGenerator generator(smallConfig());
  const auto job = generator.makeJob(1);
  EXPECT_FALSE(job.program.uiHandlers.empty());
  ASSERT_TRUE(job.program.onCreate.has_value());
  for (const auto handler : job.program.uiHandlers)
    EXPECT_LT(handler, job.program.methodCount());
}

TEST(GeneratorTest, AntOnlyAppsUseOnlyAntListedTaskPackages) {
  const AppStoreGenerator generator(smallConfig(300));
  for (std::size_t i = 0; i < generator.appCount(); ++i) {
    const AppPlan& plan = generator.plan(i);
    if (plan.archetype != AppPlan::Archetype::AntOnly) continue;
    for (const auto& source : plan.sources) {
      EXPECT_TRUE(radar::antLibraries().matches(source.taskPackage))
          << source.taskPackage;
    }
  }
}

TEST(GeneratorTest, RejectsEmptyStore) {
  StoreConfig config;
  config.appCount = 0;
  EXPECT_THROW(AppStoreGenerator{config}, std::invalid_argument);
}

}  // namespace
}  // namespace libspector::store
