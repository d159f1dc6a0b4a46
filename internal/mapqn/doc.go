// Package mapqn implements the paper's capacity-planning model (Fig. 9
// parameterized as in Section 4), generalized from the paper's two tiers
// to an arbitrary chain of K MAP-service stations: a closed tandem
// network of queueing stations — front, application, database, ... —
// plus a delay station (user think time Z), populated by N customers
// (emulated browsers). The model is solved exactly by building the
// underlying continuous-time Markov chain over states
// (n_0..n_{K-1}, phase_0..phase_{K-1}) and computing its stationary
// distribution, the approach the paper uses for model validation
// (Section 4.2, citing the MAP queueing networks of
// [Casale, Mi & Smirni, SIGMETRICS'08]).
//
// The API is Station / NetworkModel / SolveNetworkCtx /
// SolveNetworkSweepCtx, with NetworkBounds and the decomposition solver
// (SolveNetworkDecompCtx) for populations beyond exact reach. The paper's
// front+DB model is the K=2 case; testdata/twotier_golden.json pins it
// against the dedicated two-station solver this package once carried.
//
// Semantics: each station serves one job at a time, with service
// completions driven by the station's MAP (transitions in D1 complete the
// job in service, transitions in D0 change only the modulating phase).
// The MAP phase is frozen while a station idles: the MAP models the
// *service process*, whose clock advances only when work is done. The
// burstiness the MAP carries across consecutive completions is exactly
// what lets the model reproduce bottleneck switch.
package mapqn
