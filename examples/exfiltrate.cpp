/**
 * @file
 * End-to-end exfiltration demo: a byte string goes through the
 * multi-set transport. The session chunks it into sequence-numbered
 * CRC frames (Hamming(7,4)-coded, interleaved), stripes each burst
 * across k target sets at an aggressive rate, resynchronises on every
 * frame's preamble and retransmits what did not validate.
 *
 *   $ ./example_exfiltrate [setCount] [ts]
 *
 * Exits 0 exactly when the decoded string equals the payload.
 */

#include <cstdlib>
#include <iostream>

#include "chan/multiset.hh"
#include "common/table.hh"

using namespace wb;
using namespace wb::chan;

int
main(int argc, char **argv)
{
    const unsigned k = argc > 1 ? unsigned(std::atoi(argv[1])) : 4u;
    const Cycles ts = argc > 2 ? Cycles(std::atoll(argv[2])) : 2750u;
    const std::string payload =
        "The write-back policy is generally deployed in current "
        "processors.";

    ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = ts;
    cfg.protocol.encoding = Encoding::binary(4); // 4 dirty lines per 1-bit
    cfg.protocol.targetSet = 8;                  // stripes on sets 8, 16, ...
    cfg.calibration.measurements = 150;
    cfg.seed = 5;
    cfg.transport.enabled = true;
    const TransportResult res =
        runMultiSetTransport(cfg, fromString(payload), k);
    const std::string decoded = toString(res.deliveredMessage);
    const double us =
        double(res.simulatedCycles) / (cfg.protocol.cpuGhz * 1e3);

    banner(std::cout, "FEC + multi-set exfiltration");
    std::cout << "  payload: " << payload.size() << " bytes in "
              << res.framesTotal << " frames of "
              << cfg.transport.layout.payloadBits << " bits\n"
              << "  channel: " << k << " sets, Ts=" << ts << " -> "
              << Table::num(res.rawRateKbps, 0) << " kbps aggregate\n"
              << "  frames: " << res.framesDelivered << " delivered, "
              << res.framesFailed << " failed, in " << res.rounds
              << " rounds, final rung " << res.finalRateLevel << "\n"
              << "  residual bit errors: " << res.residualBitErrors << "\n"
              << "  decoded: \"" << decoded << "\"\n"
              << "  on the wire: " << Table::num(us, 0) << " us at "
              << cfg.protocol.cpuGhz << " GHz, goodput "
              << Table::num(res.goodputKbps, 0) << " kbps\n";
    return decoded == payload ? 0 : 1;
}
