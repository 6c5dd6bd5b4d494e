#include "baselines/framework.hh"

#include "common/log.hh"
#include "chan/pipeline.hh"

namespace wb::baselines
{

void
requireBaselineProtocol(const chan::ProtocolConfig &proto, unsigned sets)
{
    chan::pipeline::requireSetIndex("ProtocolConfig::targetSet",
                                    proto.targetSet, sets);
    if (proto.encoding.levels() != chan::Encoding::binary(1).levels())
        fatalf("ProtocolConfig::encoding must be binary(1) for a "
               "baseline channel (one bit per slot), got top level ",
               proto.encoding.maxLevel());
}

chan::Calibration
closedFormCalibration(double low, double high)
{
    std::vector<Samples> byD(2);
    byD[0].add(low);
    byD[1].add(high);
    return chan::Calibration::fromSamples(std::move(byD));
}

} // namespace wb::baselines
