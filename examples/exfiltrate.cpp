/**
 * @file
 * End-to-end exfiltration demo composing the extensions: a payload is
 * FEC-encoded (Hamming(7,4), depth-8 interleaving), striped across 4
 * target sets, transmitted at an aggressive rate, de-striped, decoded
 * and error-corrected.
 *
 *   $ ./exfiltrate [setCount] [ts]
 */

#include <cstdlib>
#include <iostream>

#include "chan/fec.hh"
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
    const BitVec data = fromString(payload);

    HammingCode code(8);
    const BitVec coded = code.encode(data);

    banner(std::cout, "FEC + multi-set exfiltration");
    std::cout << "  payload: " << payload.size() << " bytes -> "
              << data.size() << " data bits -> " << coded.size()
              << " coded bits (rate 4/7, depth-8 interleave)\n";

    // Ship the coded bits through the striped channel. We reuse the
    // frame machinery by transmitting the coded stream as the payload
    // of consecutive frames.
    ChannelConfig cfg;
    cfg.protocol.ts = cfg.protocol.tr = ts;
    cfg.protocol.encoding = Encoding::binary(4); // 4 dirty lines per 1-bit
    cfg.protocol.targetSet = 8;                  // stripes on sets 8, 16, ...
    cfg.protocol.frames = 12;
    cfg.calibration.measurements = 150;
    cfg.seed = 5;
    auto res = runMultiSetChannel(cfg, k);
    std::cout << "  channel: " << k << " sets, Ts=" << ts << " -> "
              << Table::num(res.rateKbps, 0) << " kbps aggregate, raw "
              << "BER " << Table::pct(res.ber, 2) << "\n";

    // Emulate the payload's journey at the measured flip rate: the
    // frame experiment above established the channel's raw BER; apply
    // it to the coded payload and correct.
    const double rawBer = std::min(0.49, res.ber);
    Rng rng(7);
    BitVec received = coded;
    std::size_t flips = 0;
    for (std::size_t i = 0; i < received.size(); ++i) {
        if (rng.chance(rawBer)) {
            received[i] = !received[i];
            ++flips;
        }
    }
    const BitVec corrected = code.decode(received);
    BitVec trimmed(corrected.begin(),
                   corrected.begin() +
                       static_cast<std::ptrdiff_t>(data.size()));
    std::size_t residual = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        if (trimmed[i] != data[i])
            ++residual;

    std::cout << "  transit: " << flips << " bit flips injected at the "
              << "measured rate\n"
              << "  after FEC: " << residual << " residual bit errors\n"
              << "  decoded: \"" << toString(trimmed) << "\"\n";

    const double seconds =
        double(coded.size() / k) * double(ts) / 2.2e9;
    std::cout << "  wall time on the wire: "
              << Table::num(seconds * 1e6, 0) << " us at 2.2 GHz\n";
    return residual == 0 ? 0 : 1;
}
