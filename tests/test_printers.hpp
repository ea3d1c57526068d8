/**
 * @file
 * gtest printers for the parameter types the parameterised suites use.
 * gtest prints a parameter it has no printer for as its address (a
 * pointer, which ASLR moves on every run) or as its raw bytes (a
 * struct, padding included), and gtest_discover_tests puts that text
 * into the ctest name. These print what the parameter means instead,
 * so the listed test names are the same in every build. Found by
 * argument-dependent lookup, so they live in the types' own namespace.
 */

#ifndef COP_TESTS_TEST_PRINTERS_HPP
#define COP_TESTS_TEST_PRINTERS_HPP

#include <ostream>

#include "core/config.hpp"
#include "ecc/secded.hpp"

namespace cop {

/** A SECDED code by its shape, e.g. `n72k64`. */
inline void
PrintTo(const HsiaoCode *code, std::ostream *os)
{
    *os << "n" << code->codeBits() << "k" << code->dataBits();
}

/** A codec configuration by its fields, e.g. `4byte-t3-hash`. */
inline void
PrintTo(const CopConfig &cfg, std::ostream *os)
{
    *os << cfg.checkBytes << "byte-t" << cfg.threshold
        << (cfg.useStaticHash ? "-hash" : "-nohash")
        << (cfg.computeTransferBits ? "-xfer" : "");
}

} // namespace cop

#endif // COP_TESTS_TEST_PRINTERS_HPP
