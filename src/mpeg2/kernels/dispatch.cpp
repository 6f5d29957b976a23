#include "mpeg2/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "mpeg2/kernels/backends.h"

namespace pmp2::mpeg2::kernels {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports(const char* feature) {
  // __builtin_cpu_supports needs a literal; map the few we ask about.
  std::string_view f(feature);
  if (f == "sse2") return __builtin_cpu_supports("sse2");
  if (f == "ssse3") return __builtin_cpu_supports("ssse3");
  if (f == "sse4.1") return __builtin_cpu_supports("sse4.1");
  if (f == "avx") return __builtin_cpu_supports("avx");
  if (f == "avx2") return __builtin_cpu_supports("avx2");
  return false;
}
#else
bool cpu_supports(const char*) { return false; }
#endif

const KernelTable* table_or_null(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &detail::scalar_table();
    case Backend::kSse2:
      return cpu_supports("sse2") ? detail::sse2_table() : nullptr;
    case Backend::kAvx2:
      return cpu_supports("avx2") ? detail::avx2_table() : nullptr;
  }
  return nullptr;
}

/// Best available backend, highest ISA first.
const KernelTable* best_table(Backend& chosen) {
  static constexpr Backend kPreference[] = {Backend::kAvx2, Backend::kSse2,
                                            Backend::kScalar};
  for (Backend b : kPreference) {
    if (const KernelTable* t = table_or_null(b)) {
      chosen = b;
      return t;
    }
  }
  chosen = Backend::kScalar;
  return &detail::scalar_table();
}

struct Selection {
  const KernelTable* table;
  Backend backend;
};

/// The PMP2_KERNELS override, resolved once: unknown names and backends
/// the host can't run warn to stderr and fall through to CPUID choice.
Selection initial_selection() {
  Selection sel{};
  if (const char* env = std::getenv("PMP2_KERNELS")) {
    Backend want;
    if (!parse_backend(env, want)) {
      std::fprintf(stderr,
                   "[kernels] PMP2_KERNELS=%s not recognized "
                   "(scalar|sse2|avx2); using CPUID default\n",
                   env);
    } else if (const KernelTable* t = table_or_null(want)) {
      sel.table = t;
      sel.backend = want;
      return sel;
    } else {
      std::fprintf(stderr,
                   "[kernels] PMP2_KERNELS=%s unavailable on this host; "
                   "using CPUID default\n",
                   env);
    }
  }
  sel.table = best_table(sel.backend);
  return sel;
}

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{static_cast<int>(Backend::kScalar)};

void ensure_selected() {
  if (g_table.load(std::memory_order_acquire) != nullptr) return;
  // Magic static: selection (env parse + CPUID) runs exactly once even
  // under concurrent first use; the CAS lets an earlier set_backend win.
  static const Selection sel = initial_selection();
  const KernelTable* expected = nullptr;
  if (g_table.compare_exchange_strong(expected, sel.table,
                                      std::memory_order_acq_rel)) {
    g_backend.store(static_cast<int>(sel.backend),
                    std::memory_order_release);
  }
}

}  // namespace

const KernelTable& active() {
  ensure_selected();
  return *g_table.load(std::memory_order_acquire);
}

Backend active_backend() {
  ensure_selected();
  return static_cast<Backend>(g_backend.load(std::memory_order_acquire));
}

bool backend_available(Backend b) { return table_or_null(b) != nullptr; }

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (int i = 0; i < kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (backend_available(b)) out.push_back(b);
  }
  return out;
}

const KernelTable& table(Backend b) {
  const KernelTable* t = table_or_null(b);
  return t ? *t : detail::scalar_table();
}

bool set_backend(Backend b) {
  const KernelTable* t = table_or_null(b);
  if (!t) return false;
  g_backend.store(static_cast<int>(b), std::memory_order_release);
  g_table.store(t, std::memory_order_release);
  return true;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend& out) {
  if (name == "scalar") {
    out = Backend::kScalar;
    return true;
  }
  if (name == "sse2") {
    out = Backend::kSse2;
    return true;
  }
  if (name == "avx2") {
    out = Backend::kAvx2;
    return true;
  }
  return false;
}

namespace detail {
IdctFn idct_vector_raw(Backend b) {
  // Host-gated like table_or_null: a raw pointer for an ISA the CPU lacks
  // would fault on first use.
  switch (b) {
    case Backend::kScalar:
    case Backend::kSse2:  // its IDCT is the scalar kernel
      return nullptr;
    case Backend::kAvx2:
      return cpu_supports("avx2") ? avx2_idct_raw() : nullptr;
  }
  return nullptr;
}
}  // namespace detail

std::string cpu_features() {
  std::string out;
  static constexpr const char* kProbe[] = {"sse2", "ssse3", "sse4.1", "avx",
                                           "avx2"};
  for (const char* f : kProbe) {
    if (!cpu_supports(f)) continue;
    if (!out.empty()) out += ',';
    out += f;
  }
  if (out.empty()) out = "generic";
  return out;
}

}  // namespace pmp2::mpeg2::kernels
