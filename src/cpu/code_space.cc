#include "code_space.hh"

#include "common/logging.hh"

namespace jrpm
{

namespace
{

/** Fill the SpecClass / straight-line-run side tables the burst
 *  dispatcher indexes. */
void
classify(NativeCode &code)
{
    const std::size_t n = code.insts.size();
    code.specClass.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        code.specClass[i] = specClassOf(code.insts[i].op);
    // Backward pass: a transparent instruction extends the run that
    // follows it unless it can change the pc (then the dispatcher
    // must re-approve at the unknown successor).
    code.linearRun.resize(n);
    for (std::size_t j = n; j-- > 0;) {
        if (code.specClass[j] != kSpecTransparent) {
            code.linearRun[j] = 0;
        } else if (altersPc(code.insts[j].op)) {
            code.linearRun[j] = 1;
        } else {
            const std::uint8_t next =
                j + 1 < n ? code.linearRun[j + 1] : 0;
            code.linearRun[j] =
                next >= 255 ? 255 : static_cast<std::uint8_t>(next + 1);
        }
    }
}

} // namespace

std::uint32_t
CodeSpace::install(NativeCode code)
{
    if (methods.size() >= 4096)
        panic("code space full (4096 methods)");
    if (code.insts.size() >= (1u << 20))
        panic("method %s too large (%zu insts)", code.name.c_str(),
              code.insts.size());
    code.methodId = static_cast<std::uint32_t>(methods.size());
    classify(code);
    methods.push_back(std::move(code));
    ++gen;
    return methods.back().methodId;
}

void
CodeSpace::replace(std::uint32_t method_id, NativeCode code)
{
    if (method_id >= methods.size())
        panic("replace of unknown method %u", method_id);
    code.methodId = method_id;
    classify(code);
    methods[method_id] = std::move(code);
    ++gen;
}

const NativeCode &
CodeSpace::method(std::uint32_t method_id) const
{
    if (method_id >= methods.size())
        panic("unknown method id %u", method_id);
    return methods[method_id];
}

NativeCode &
CodeSpace::method(std::uint32_t method_id)
{
    if (method_id >= methods.size())
        panic("unknown method id %u", method_id);
    return methods[method_id];
}

} // namespace jrpm
