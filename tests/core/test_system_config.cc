#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/system_config.hh"

namespace secdimm::core
{
namespace
{

TEST(SystemConfig, Figure7DesignShapes)
{
    EXPECT_EQ(makeConfig(DesignPoint::Indep2).numSdimms(), 2u);
    EXPECT_EQ(makeConfig(DesignPoint::Indep2).cpuChannels, 1u);
    EXPECT_EQ(makeConfig(DesignPoint::Split2).numSdimms(), 2u);
    EXPECT_EQ(makeConfig(DesignPoint::Split2).groups(), 1u);
    EXPECT_EQ(makeConfig(DesignPoint::Indep4).numSdimms(), 4u);
    EXPECT_EQ(makeConfig(DesignPoint::Indep4).cpuChannels, 2u);
    EXPECT_EQ(makeConfig(DesignPoint::Split4).groups(), 1u);
    EXPECT_EQ(makeConfig(DesignPoint::IndepSplit).numSdimms(), 4u);
    EXPECT_EQ(makeConfig(DesignPoint::IndepSplit).groups(), 2u);
}

TEST(SystemConfig, TreeParametersPropagate)
{
    const SystemConfig cfg = makeConfig(DesignPoint::Freecursive, 26, 5);
    EXPECT_EQ(cfg.globalTree().levels, 26u);
    EXPECT_EQ(cfg.globalTree().cachedLevels, 5u);
    EXPECT_EQ(cfg.globalTree().bucketBlocks, 4u); // Table II Z=4.
    EXPECT_EQ(cfg.globalTree().encLatency, 21u);  // Table II.
}

TEST(SystemConfig, TableIIGeometry)
{
    const SystemConfig cfg = makeConfig(DesignPoint::Freecursive);
    EXPECT_EQ(cfg.cpuGeom.ranksPerChannel, 8u);
    EXPECT_EQ(cfg.cpuGeom.banksPerRank, 8u);
    EXPECT_EQ(cfg.cpuGeom.rowBufferBytes, 8192u);
    EXPECT_EQ(cfg.sdimmGeom.ranksPerChannel, 4u);
}

TEST(SystemConfig, BackendsConstructForEveryDesign)
{
    for (DesignPoint d :
         {DesignPoint::NonSecure, DesignPoint::PathOram,
          DesignPoint::Freecursive, DesignPoint::Indep2,
          DesignPoint::Split2, DesignPoint::Indep4,
          DesignPoint::Split4, DesignPoint::IndepSplit}) {
        SystemConfig cfg = makeConfig(d, 14, 4);
        cfg.cpuGeom.rowsPerBank = 4096;
        cfg.sdimmGeom.rowsPerBank = 4096;
        auto backend = buildBackend(cfg, 1);
        ASSERT_NE(backend, nullptr) << designName(d);
        EXPECT_TRUE(backend->idle()) << designName(d);
        EXPECT_TRUE(backend->canAccept()) << designName(d);
    }
}

TEST(SystemConfig, FaultPlanRefusedWhereTheTimingModelWouldDropIt)
{
    // Only the Independent timing backends inject faults; anywhere
    // else a plan would vanish and the run would read clean.
    for (DesignPoint d :
         {DesignPoint::NonSecure, DesignPoint::PathOram,
          DesignPoint::Freecursive, DesignPoint::Indep2,
          DesignPoint::Split2, DesignPoint::Indep4,
          DesignPoint::Split4, DesignPoint::IndepSplit}) {
        SystemConfig cfg = makeConfig(d, 14, 4);
        cfg.cpuGeom.rowsPerBank = 4096;
        cfg.sdimmGeom.rowsPerBank = 4096;
        cfg.faultPlan = fault::FaultPlan::hardDeath(1, 50, 7);
        if (d == DesignPoint::Indep2 || d == DesignPoint::Indep4) {
            EXPECT_NE(buildBackend(cfg, 1), nullptr) << designName(d);
            continue;
        }
        try {
            buildBackend(cfg, 1);
            ADD_FAILURE() << designName(d) << " accepted a fault plan";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(designName(d)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SystemConfig, DesignNamesMatchPaper)
{
    EXPECT_STREQ(designName(DesignPoint::Indep2), "INDEP-2");
    EXPECT_STREQ(designName(DesignPoint::Split4), "SPLIT-4");
    EXPECT_STREQ(designName(DesignPoint::IndepSplit), "INDEP-SPLIT");
    EXPECT_STREQ(designName(DesignPoint::Freecursive), "Freecursive");
    EXPECT_STREQ(designName(DesignPoint::PathOram), "PathORAM");
}

TEST(SystemConfig, PathOramIsCpuSideWithFlatPosMap)
{
    // The Figure 8 baseline: no SDIMMs, and exactly one accessORAM
    // per miss because the whole PosMap lives on-chip.
    const SystemConfig cfg = makeConfig(DesignPoint::PathOram);
    EXPECT_EQ(cfg.numSdimms(), 0u);
    EXPECT_EQ(cfg.groups(), 0u);
    EXPECT_EQ(cfg.cpuChannels, 1u);
}

TEST(SystemConfig, RecursionDefaultsMatchTableII)
{
    const SystemConfig cfg = makeConfig(DesignPoint::Freecursive);
    EXPECT_EQ(cfg.recursion.posmapLevels, 5u); // 5 recursive PosMaps.
    EXPECT_EQ(cfg.recursion.plbEntries, 1024u); // 64KB PLB.
}

} // namespace
} // namespace secdimm::core
