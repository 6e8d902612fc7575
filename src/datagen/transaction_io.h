#ifndef SETM_DATAGEN_TRANSACTION_IO_H_
#define SETM_DATAGEN_TRANSACTION_IO_H_

#include <string>

#include "common/result.h"
#include "core/types.h"

namespace setm {

/// Writes the database as CSV with a "trans_id,item" header — the layout of
/// the SALES relation, one tuple per line.
Status SaveTransactionsCsv(const std::string& path, const TransactionDb& db);

/// Reads a CSV produced by SaveTransactionsCsv (or any two-column integer
/// CSV, header optional). Rows may arrive in any order; items are grouped
/// by trans_id, sorted and deduplicated. A trans_id outside int32 or an
/// item outside [0, INT32_MAX] is InvalidArgument naming `path:line`.
Result<TransactionDb> LoadTransactionsCsv(const std::string& path);

}  // namespace setm

#endif  // SETM_DATAGEN_TRANSACTION_IO_H_
