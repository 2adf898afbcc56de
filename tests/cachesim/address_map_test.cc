/**
 * @file
 * Tests for the synthetic address space the trace producers emit in.
 */

#include <gtest/gtest.h>

#include "cachesim/address_map.h"

namespace gral
{
namespace
{

TEST(AddressMap, RegionsClassify)
{
    AddressMap map;
    EXPECT_EQ(map.regionOf(map.offsetsAddr(5)), AccessRegion::Offsets);
    EXPECT_EQ(map.regionOf(map.edgesAddr(5)), AccessRegion::EdgesArr);
    EXPECT_EQ(map.regionOf(map.dataOldAddr(5)), AccessRegion::DataOld);
    EXPECT_EQ(map.regionOf(map.dataNewAddr(5)), AccessRegion::DataNew);
    EXPECT_EQ(map.regionOf(0x42), AccessRegion::Other);
}

TEST(AddressMap, ElementStrides)
{
    AddressMap map;
    EXPECT_EQ(map.offsetsAddr(1) - map.offsetsAddr(0), kOffsetBytes);
    EXPECT_EQ(map.edgesAddr(1) - map.edgesAddr(0), kEdgeBytes);
    EXPECT_EQ(map.dataOldAddr(1) - map.dataOldAddr(0),
              kVertexDataBytes);
}

} // namespace
} // namespace gral
