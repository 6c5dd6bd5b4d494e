/**
 * @file
 * The ChannelConfigs the L2 and multi-set tests start from. Both
 * placements run on a same-core ChannelConfig, but their suites were
 * written against settings that differ from the same-core channel's:
 * fewer frames, 150 calibration measurements, d = 4 and, for L2,
 * longer slots on L2 set 137.
 */

#ifndef WB_TESTS_PLACEMENT_CONFIGS_HH
#define WB_TESTS_PLACEMENT_CONFIGS_HH

#include "chan/channel.hh"

namespace wb::test
{

/** The L2 channel's settings: 30000-cycle slots (the sender's push
 *  costs more), d = 4, L2 set 137, 12-line replacement sets. */
inline chan::ChannelConfig
l2Config()
{
    chan::ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = 30000;
    cfg.protocol.frames = 20;
    cfg.protocol.encoding = chan::Encoding::binary(4);
    cfg.protocol.targetSet = 137;
    cfg.protocol.replacementSize = 12;
    cfg.calibration.measurements = 150;
    return cfg;
}

/** The multi-set channel's settings: d = 4 per set, stripes from L1
 *  set 8. */
inline chan::ChannelConfig
multiSetConfig()
{
    chan::ChannelConfig cfg;
    cfg.protocol.frames = 15;
    cfg.protocol.encoding = chan::Encoding::binary(4);
    cfg.protocol.targetSet = 8;
    cfg.calibration.measurements = 150;
    return cfg;
}

} // namespace wb::test

#endif // WB_TESTS_PLACEMENT_CONFIGS_HH
