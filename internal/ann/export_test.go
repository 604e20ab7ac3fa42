package ann

// TrainsWithVectorStep reports whether TrainEarlyStopping trains n with
// the vector step; it exports trainAsm16 to the external tests.
var TrainsWithVectorStep = trainAsm16
