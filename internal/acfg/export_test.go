package acfg

// RefBuild exposes the reference splicer to the external test package,
// which may import the corpora (their packages depend on acfg).
var RefBuild = refBuild
