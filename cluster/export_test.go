package cluster

// CheckGolden gives the external test package the one -update golden
// path.
var CheckGolden = checkGolden
