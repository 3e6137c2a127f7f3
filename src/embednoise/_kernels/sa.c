/* Metropolis sweeps with incremental local fields, one read after another, as in
   _sa_py.run_metropolis. Spin i's neighbours are CSR entries row_ptr[i]..row_ptr[i+1]-1; h and
   nbr_val advance h_stride, val_stride per read. The CSR must be symmetric (entry (i, j) has a
   twin (j, i) of the same value), so the flip of i changes field[j] by the change in the term
   that row j sums. field is (n,) scratch, summed for each read before its first sweep. */
void run_metropolis(long reads, long n, long sweeps, signed char *spins, const double *h,
                    long h_stride, const int *row_ptr, const int *nbr_idx, const double *nbr_val,
                    long val_stride, const int *perms, const double *betas, const double *log_u,
                    double *field)
{
    for (long r = 0; r < reads; r++) {
        signed char *s = spins + r * n;
        const double *hr = h + r * h_stride, *vr = nbr_val + r * val_stride;
        for (long i = 0; i < n; i++) {
            double f = hr[i];
            for (long d = row_ptr[i]; d < row_ptr[i + 1]; d++)
                f += vr[d] * s[nbr_idx[d]];
            field[i] = f;
        }
        for (long c = 0; c < sweeps; c++)
            for (long t = 0; t < n; t++) {
                long i = perms[r * n + t];
                if (log_u[(r * sweeps + c) * n + t] < -betas[c] * (-2.0 * s[i] * field[i])) {
                    s[i] = -s[i];
                    double two_s = 2.0 * s[i];
                    for (long d = row_ptr[i]; d < row_ptr[i + 1]; d++)
                        field[nbr_idx[d]] += two_s * vr[d];
                }
            }
    }
}
