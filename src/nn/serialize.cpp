#include "serialize.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "conv2d.hpp"
#include "dense.hpp"

namespace fastbcnn {

namespace {

/** Parameter tensors of a layer, or nullptrs when it has none. */
struct ParamRefs {
    Tensor *weights = nullptr;
    Tensor *bias = nullptr;
};

ParamRefs
paramsOf(Layer &layer)
{
    switch (layer.kind()) {
      case LayerKind::Conv2d: {
        auto &conv = static_cast<Conv2d &>(layer);
        return {&conv.weights(), &conv.bias()};
      }
      case LayerKind::Linear: {
        auto &fc = static_cast<Linear &>(layer);
        return {&fc.weights(), &fc.bias()};
      }
      default:
        return {};
    }
}

void
writeValues(std::ostream &os, const std::vector<float> &values)
{
    char buf[64];
    for (float v : values) {
        // Hex floats round-trip exactly through text.
        std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
        os << buf << '\n';
    }
}

/**
 * Cap on reserve-ahead when a count field comes from the untrusted
 * stream: a rotted count must not become a giant allocation before
 * the (cheap) truncation check below catches it.
 */
constexpr std::size_t kReserveCap = 1u << 16;

/**
 * Read @p count float tokens into @p out.  Rejects truncation and
 * tokens that are not entirely a float literal (bit rot inside a
 * value), so corrupt streams fail loudly instead of loading zeros.
 */
Status
readValues(std::istream &is, std::size_t count,
           std::vector<float> &out)
{
    out.clear();
    out.reserve(std::min(count, kReserveCap));
    std::string token;
    for (std::size_t i = 0; i < count; ++i) {
        if (!(is >> token)) {
            return errorf(ErrorCode::Truncated,
                          "weight file truncated after %zu of %zu "
                          "values", i, count);
        }
        char *end = nullptr;
        const float v = std::strtof(token.c_str(), &end);
        if (end == token.c_str() ||
            end != token.c_str() + token.size()) {
            // A half-token at end of stream is a cut, not bit rot.
            if (is.peek() == std::istream::traits_type::eof()) {
                return errorf(ErrorCode::Truncated,
                              "weight file truncated inside value %zu "
                              "of %zu ('%.32s')", i, count,
                              token.c_str());
            }
            return errorf(ErrorCode::ParseError,
                          "corrupt value token '%.32s' at value %zu "
                          "of %zu", token.c_str(), i, count);
        }
        out.push_back(v);
    }
    return Status::ok();
}

/** The integrity footer tag ("crc32 <8 hex digits>" on its own line). */
constexpr const char *kCrcFooterTag = "\ncrc32 ";

/**
 * Split the trailing "crc32 XXXXXXXX" footer off @p body (the stream
 * content after the header line's tokens, starting with the header's
 * newline).  On success @p payload gets the record region the CRC was
 * computed over and @p crc its stored value.  A body with no footer
 * returns ok with @p has_footer false (legacy file).  A mangled footer
 * is reported as Truncated: the only way to half-write this line is a
 * cut (or rot) at the very end of the file.
 */
Status
splitCrcFooter(const std::string &body, std::string &payload,
               std::uint32_t &crc, bool &has_footer)
{
    has_footer = false;
    payload = body.empty() ? body : body.substr(1);
    const std::size_t pos = body.rfind(kCrcFooterTag);
    if (pos == std::string::npos)
        return Status::ok();
    const std::size_t hex_at = pos + std::strlen(kCrcFooterTag);
    std::size_t hex_len = 0;
    while (hex_at + hex_len < body.size() &&
           std::isxdigit(static_cast<unsigned char>(
               body[hex_at + hex_len]))) {
        ++hex_len;
    }
    std::size_t tail = hex_at + hex_len;
    while (tail < body.size() &&
           std::isspace(static_cast<unsigned char>(body[tail]))) {
        ++tail;
    }
    if (tail != body.size()) {
        // "crc32" appearing mid-stream is not a footer (the record
        // grammar cannot produce it, but be conservative).
        return Status::ok();
    }
    if (hex_len != 8) {
        return errorf(ErrorCode::Truncated,
                      "weight file ends in a mangled crc32 footer "
                      "(%zu hex digits, want 8)", hex_len);
    }
    crc = static_cast<std::uint32_t>(
        std::strtoul(body.substr(hex_at, 8).c_str(), nullptr, 16));
    // The payload is everything between the header newline and the
    // footer's leading newline, inclusive of the final record newline.
    payload = body.substr(1, pos);
    has_footer = true;
    return Status::ok();
}

/** Map a text kind token onto the two checkpointable LayerKinds. */
Status
parseRecordKind(const std::string &token, LayerKind &kind)
{
    if (token == "Conv2d") {
        kind = LayerKind::Conv2d;
        return Status::ok();
    }
    if (token == "Linear") {
        kind = LayerKind::Linear;
        return Status::ok();
    }
    return errorf(ErrorCode::ParseError,
                  "unknown checkpoint layer kind '%.32s' (want "
                  "Conv2d or Linear)", token.c_str());
}

} // namespace

StatGroup &
checkpointStats()
{
    static StatGroup stats("checkpoint");
    return stats;
}

CheckpointImage
checkpointImageOf(const Network &net)
{
    CheckpointImage image;
    image.modelName = net.name();
    for (NodeId id = 0; id < net.size(); ++id) {
        // paramsOf needs mutable access; snapshotting only reads.
        ParamRefs p = paramsOf(const_cast<Layer &>(net.layer(id)));
        if (!p.weights)
            continue;
        CheckpointRecord rec;
        rec.name = net.layer(id).name();
        rec.kind = net.layer(id).kind();
        rec.weights.assign(p.weights->data().begin(),
                           p.weights->data().end());
        rec.bias.assign(p.bias->data().begin(), p.bias->data().end());
        image.records.push_back(std::move(rec));
    }
    return image;
}

Status
tryCommitCheckpointImage(Network &net, const CheckpointImage &image)
{
    // Stage 1: resolve and validate every record without touching the
    // network, so any error leaves the weights exactly as they were.
    std::vector<NodeId> nodes;
    nodes.reserve(image.records.size());
    for (const CheckpointRecord &rec : image.records) {
        const std::optional<NodeId> id = net.tryFindNode(rec.name);
        if (!id) {
            return errorf(ErrorCode::NotFound,
                          "network '%s' has no layer named '%.64s'",
                          net.name().c_str(), rec.name.c_str());
        }
        ParamRefs p = paramsOf(net.layer(*id));
        if (!p.weights) {
            return errorf(ErrorCode::Mismatch,
                          "layer '%.64s' in weight file has no "
                          "parameters in the network",
                          rec.name.c_str());
        }
        if (p.weights->numel() != rec.weights.size() ||
            p.bias->numel() != rec.bias.size()) {
            return errorf(ErrorCode::Mismatch,
                          "layer '%.64s': checkpoint holds %zu/%zu "
                          "values but the network needs %zu/%zu",
                          rec.name.c_str(), rec.weights.size(),
                          rec.bias.size(), p.weights->numel(),
                          p.bias->numel());
        }
        nodes.push_back(*id);
    }

    // Stage 2: commit.  Counts were validated above, so this cannot
    // fail half-way.
    for (std::size_t i = 0; i < image.records.size(); ++i) {
        const CheckpointRecord &rec = image.records[i];
        ParamRefs p = paramsOf(net.layer(nodes[i]));
        std::copy(rec.weights.begin(), rec.weights.end(),
                  p.weights->data().begin());
        std::copy(rec.bias.begin(), rec.bias.end(),
                  p.bias->data().begin());
    }
    return Status::ok();
}

Status
tryEmitTextCheckpoint(const CheckpointImage &image, std::ostream &os)
{
    if (!image.quantRecords.empty()) {
        return errorf(ErrorCode::InvalidArgument,
                      "the text checkpoint format has no section for "
                      "quantized weights; save '%s' (%zu quant "
                      "records) as a binary checkpoint instead",
                      image.modelName.c_str(),
                      image.quantRecords.size());
    }
    // Records are built in memory first so the CRC footer can cover
    // the exact byte region the loader will re-hash.
    std::ostringstream records;
    for (const CheckpointRecord &rec : image.records) {
        records << "layer " << rec.name << ' '
                << layerKindName(rec.kind) << ' '
                << rec.weights.size() << ' ' << rec.bias.size()
                << '\n';
        writeValues(records, rec.weights);
        writeValues(records, rec.bias);
    }
    const std::string payload = records.str();
    char footer[16];
    std::snprintf(footer, sizeof(footer), "crc32 %08x",
                  crc32(payload));
    os << "fastbcnn-weights v1 " << image.modelName << '\n'
       << payload << footer << '\n';
    if (!os.good()) {
        return errorf(ErrorCode::IoError,
                      "stream failed while saving weights of '%s'",
                      image.modelName.c_str());
    }
    return Status::ok();
}

Expected<CheckpointImage>
tryParseTextCheckpoint(std::istream &is)
{
    std::string magic, version, model;
    if (!(is >> magic >> version >> model) ||
        magic != "fastbcnn-weights" || version != "v1") {
        return errorf(ErrorCode::ParseError,
                      "not a fastbcnn v1 weight file (header "
                      "'%.32s %.32s')", magic.c_str(),
                      version.c_str());
    }

    // Integrity first: hash the record region and compare with the
    // footer before spending any time parsing.  A footer-less stream
    // is a legacy (pre-footer) checkpoint — still accepted, with a
    // warning and a counted stat, because parse-level validation
    // below catches gross damage anyway.
    std::string body{std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>()};
    std::string payload;
    std::uint32_t stored_crc = 0;
    bool has_footer = false;
    FASTBCNN_RETURN_IF_ERROR(
        splitCrcFooter(body, payload, stored_crc, has_footer));
    if (has_footer) {
        const std::uint32_t actual = crc32(payload);
        if (actual != stored_crc) {
            return errorf(ErrorCode::DataLoss,
                          "weight file of '%.64s' failed its integrity "
                          "check (stored crc32 %08x, computed %08x)",
                          model.c_str(), stored_crc, actual);
        }
    } else if (!payload.empty()) {
        checkpointStats().add("legacy_text_loads");
        warn("weight file of '%s' has no crc32 footer (legacy "
             "format); loading without an integrity check",
             model.c_str());
    }
    std::istringstream records(payload);

    CheckpointImage image;
    image.modelName = std::move(model);
    std::string tag;
    while (records >> tag) {
        if (tag != "layer") {
            return errorf(ErrorCode::ParseError,
                          "malformed weight file near '%.32s'",
                          tag.c_str());
        }
        std::string name, kind;
        std::size_t w_count = 0, b_count = 0;
        if (!(records >> name >> kind >> w_count >> b_count)) {
            return errorf(ErrorCode::ParseError,
                          "malformed layer record near '%.64s'",
                          name.c_str());
        }
        CheckpointRecord rec;
        rec.name = std::move(name);
        FASTBCNN_RETURN_IF_ERROR(parseRecordKind(kind, rec.kind));
        FASTBCNN_RETURN_IF_ERROR(
            readValues(records, w_count, rec.weights)
                .withContext(format("weights of layer '%.64s'",
                                    rec.name.c_str())));
        FASTBCNN_RETURN_IF_ERROR(
            readValues(records, b_count, rec.bias)
                .withContext(format("bias of layer '%.64s'",
                                    rec.name.c_str())));
        image.records.push_back(std::move(rec));
    }
    return image;
}

Status
trySaveWeights(const Network &net, std::ostream &os)
{
    return tryEmitTextCheckpoint(checkpointImageOf(net), os);
}

Status
tryLoadWeights(Network &net, std::istream &is)
{
    Expected<CheckpointImage> image = tryParseTextCheckpoint(is);
    if (!image.hasValue())
        return std::move(image).takeError();
    FASTBCNN_RETURN_IF_ERROR(
        tryCommitCheckpointImage(net, image.value()));
    checkpointStats().add("text_loads");
    return Status::ok();
}

void
printSummary(const Network &net, std::ostream &os)
{
    Table t({"#", "layer", "kind", "output shape", "params"});
    std::uint64_t total_params = 0;
    for (NodeId id = 0; id < net.size(); ++id) {
        ParamRefs p = paramsOf(const_cast<Layer &>(net.layer(id)));
        const std::uint64_t params =
            p.weights ? p.weights->numel() + p.bias->numel() : 0;
        total_params += params;
        t.addRow({format("%zu", id), net.layer(id).name(),
                  layerKindName(net.layer(id).kind()),
                  net.shapeOf(id).toString(),
                  params == 0 ? "-" : format("%llu",
                                             static_cast<unsigned long long>(params))});
    }
    t.print(os);
    os << net.name() << ": " << total_params << " parameters, "
       << net.totalMacs() << " MACs per dense inference\n";
}

} // namespace fastbcnn
