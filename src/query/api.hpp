/// \file api.hpp
/// The versioned public surface of edfkit's analysis service. Include
/// this one header to get everything an external caller needs:
///
///   - `Workload`                          (query/workload.hpp)
///   - `Platform`                          (model/platform.hpp)
///   - `Query`, `Outcome`                  (query/query.hpp)
///   - typed per-backend parameters        (query/options.hpp)
///   - the backend registry + `TestKind`   (query/registry.hpp)
///   - certificates and their checker      (query/certificate.hpp)
///
/// Everything else under src/ (analysis kernels, demand machinery, the
/// simulator) is implementation detail reachable through the registry;
/// internal headers may change without an API-version bump.
///
/// Versioning: EDFKIT_API_VERSION bumps when this surface changes
/// incompatibly. Version 2 added the platform-aware query API — a
/// `Platform{m}` on `Query`/`QueryOptions`, backend platform-capability
/// flags, the global-EDF cascade (`Query::cascade`), and the
/// multiprocessor certificate forms. Uniprocessor callers are
/// source-compatible: `Platform` defaults to m == 1 and every version-1
/// construct keeps its meaning. Version 3 removed `WorkloadView` and the
/// overlay `Query::run(base, extra)`: `run(const TaskSet&)` and
/// `run(const Workload&)` hand their tasks to the backends without a
/// copy. Version 4 dropped the exact-kind parameter of `Query::ladder`
/// and `default_ladder_kinds`: the ladder's exact rung is always QPA.
/// Version 5 removed the `Portfolio` policy and `Query::portfolio()`,
/// `QueryOptions` and `Query::with_options` (the `with_*` setters set
/// the same fields), `BackendRegistry::exact_kinds()`, the `stop`
/// cancellation field of `ProcessorDemandOptions`, `DynamicTestOptions`,
/// `AllApproxOptions` and `QpaParams`, and the `stop` parameter of
/// `qpa_test`: every policy runs its backends in order on the calling
/// thread.
///
/// Typical use:
///
///   #include "query/api.hpp"
///   using namespace edfkit;
///
///   TaskSet ts = ...;
///   // Uniprocessor, exact:
///   Outcome uni = Query::single(TestKind::Qpa).run(ts);
///   // Global EDF on 4 processors, cheapest-first cascade:
///   Outcome glb = Query::cascade(Platform{4}).run(ts);
///   if (glb.feasible()) {
///     CertificateCheck chk = verify(ts, glb.certificate);
///     // chk.valid: the accept re-established by independent replay
///   }
#pragma once

#define EDFKIT_API_VERSION 5

#include "model/platform.hpp"
#include "model/task_set.hpp"
#include "query/certificate.hpp"
#include "query/options.hpp"
#include "query/query.hpp"
#include "query/registry.hpp"
#include "query/workload.hpp"
