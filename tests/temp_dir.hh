/**
 * @file
 * The one way a test gets space on disk: a fresh directory
 * named /tmp/jrpm-test-XXXXXX, removed with everything in it when the
 * TempDir goes out of scope.  CI fails the tier-1 job if a test run
 * leaves anything under that prefix.
 */

#ifndef JRPM_TESTS_TEMP_DIR_HH
#define JRPM_TESTS_TEMP_DIR_HH

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace jrpm
{

/** A fresh temp directory removed at scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/jrpm-test-XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        if (!d)
            throw std::runtime_error(std::string("mkdtemp: ") +
                                     std::strerror(errno));
        path = d;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

} // namespace jrpm

#endif // JRPM_TESTS_TEMP_DIR_HH
