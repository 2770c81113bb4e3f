package main

// Pinned sha256 digests of the exports each workload must reproduce. They
// depend on the simulator's results only: a change that moves any simulated
// statistic changes them, and a speed-only change must not.
const (
	// pinnedSweepPaper: fig17-fig24 at sweepPaperConfig.
	pinnedSweepPaper = "b829d1e853fe1d14803dbc074f48b121e4dd193f1d1f3f274fc76cd48daab5ad"
	// pinnedAll: every registered experiment at pinnedConfig (fabric-dispatch).
	pinnedAll = "1955b7804946653d52c83207e7ca040e0cbf6944fd6b63ca6a88ab9455341c20"
	// pinnedMini: miniExperiments at pinnedConfig.
	pinnedMini = "f0bc7f6ac4c44be1da369a88ce52f0de2817e3f49358c417294ea6a626c052df"
)
