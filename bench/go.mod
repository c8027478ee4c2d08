module github.com/spatialcrowd/tamp/bench

go 1.22

require github.com/spatialcrowd/tamp v0.0.0

replace github.com/spatialcrowd/tamp => ../
