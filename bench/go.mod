module ringmesh/bench

go 1.22

require ringmesh v0.0.0

replace ringmesh => ../
